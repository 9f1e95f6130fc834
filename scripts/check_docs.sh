#!/usr/bin/env bash
# The CI docs gate: every package carries a package comment, README.md,
# DESIGN.md and the package docs name only root constructors that exist,
# the docs name only tests that exist, and every fenced ```go block in
# README.md is a self-contained program that builds against the current
# tree (so the README cannot drift from the API).
set -euo pipefail
cd "$(dirname "$0")/.."

echo "== package comments"
go run ./scripts/checkdoc

# check_names ALLOWED WHY REGEX FILE... prints every REGEX match in the
# files that is not a line of ALLOWED, and fails if there was one.
check_names() {
  local allowed=$1 why=$2 regex=$3 stale=0
  shift 3
  while IFS=: read -r file line name; do
    if ! grep -qxF "$name" <<<"$allowed"; then
      echo "$file:$line: names $name, $why" >&2
      stale=1
    fi
  done < <(grep -noE "$regex" "$@")
  return "$stale"
}
docs_go=$(find . -name doc.go -not -path './.git/*')

echo "== constructor names"
# Every New…Transport / New…Detector / New…Topology the docs mention must
# be a function procgroup.go exports. The change logs (CHANGES, ROADMAP,
# EXPERIMENTS) record history and may name removed constructors.
exported=$(grep -oE '^func New[A-Za-z0-9]*(Transport|Detector|Topology)\b' procgroup.go | sed 's/^func //')
check_names "$exported" "which procgroup.go does not export" \
  '\bNew[A-Za-z0-9]*(Transport|Detector|Topology)\b' README.md DESIGN.md $docs_go

echo "== test names"
# Every Test… that README.md, DESIGN.md, EXPERIMENTS.md or a doc.go names
# must be defined by some _test.go, so the docs cannot cite a pin that is
# gone. CHANGES.md and ROADMAP.md record history and are exempt.
defined=$(grep -rhoE '^func Test[A-Za-z0-9_]*' --include='*_test.go' --exclude-dir=.git . |
  sed 's/^func //' | sort -u)
check_names "$defined" "which no _test.go defines" \
  '\bTest[A-Z][A-Za-z0-9_]*' README.md DESIGN.md EXPERIMENTS.md $docs_go

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
