#!/usr/bin/env bash
# The CI docs gate: every package carries a package comment, README.md,
# DESIGN.md and the package docs name only root constructors that exist,
# and every fenced ```go block in README.md is a self-contained program
# that builds against the current tree (so the README cannot drift from
# the API).
set -euo pipefail
cd "$(dirname "$0")/.."

echo "== package comments"
go run ./scripts/checkdoc

echo "== constructor names"
# Every New…Transport / New…Detector / New…Topology the docs mention must
# be a function procgroup.go exports. The change logs (CHANGES, ROADMAP,
# EXPERIMENTS) record history and may name removed constructors.
exported=$(grep -oE '^func New[A-Za-z0-9]*(Transport|Detector|Topology)\b' procgroup.go | sed 's/^func //')
stale=0
while IFS=: read -r file line name; do
  if ! grep -qxF "$name" <<<"$exported"; then
    echo "$file:$line: names $name, which procgroup.go does not export" >&2
    stale=1
  fi
done < <(grep -noE '\bNew[A-Za-z0-9]*(Transport|Detector|Topology)\b' \
  README.md DESIGN.md $(find . -name doc.go -not -path './.git/*'))
if [ "$stale" -ne 0 ]; then
  exit 1
fi

echo "== README snippets"
tmp="readme-snippets-check"
rm -rf "$tmp"
mkdir -p "$tmp"
trap 'rm -rf "$tmp"' EXIT

awk -v tmp="$tmp" '
  /^```go$/ { in_snip = 1; n++; out = sprintf("%s/snip%d.go", tmp, n); next }
  /^```$/   { in_snip = 0 }
  in_snip   { print > out }
' README.md

count=0
for f in "$tmp"/snip*.go; do
  [ -e "$f" ] || continue
  d="$tmp/$(basename "$f" .go)"
  mkdir -p "$d"
  mv "$f" "$d/main.go"
  go build -o /dev/null "./$d"
  count=$((count + 1))
done
if [ "$count" -eq 0 ]; then
  echo "no \`\`\`go snippets found in README.md" >&2
  exit 1
fi
echo "built $count README snippet(s)"
