package main

import (
	"bytes"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

const compareSpec = `{"command":["x"],"paths":["bench"],"run_seconds":20,
 "workloads":[{"name":"w","why":"y"}],
 "end_to_end":[{"name":"lat_ms","unit":"ms","better":"lower","bound":0.10},
               {"name":"tput","unit":"1/s","better":"higher","bound":0.10}],
 "per_layer":[]}`

func resultJSON(lat, tput string, attempted, failed string) string {
	return `{"workloads":{"w":{"correct":true,"ops_attempted":` + attempted + `,"ops_failed":` + failed + `,
	  "end_to_end":{"lat_ms":{"value":` + lat + `,"unit":"ms"},"tput":{"value":` + tput + `,"unit":"1/s"}}}}}`
}

func TestCompare(t *testing.T) {
	dir := t.TempDir()
	write := func(name, body string) string {
		path := filepath.Join(dir, name)
		if err := os.WriteFile(path, []byte(body), 0o644); err != nil {
			t.Fatal(err)
		}
		return path
	}
	spec := write("BENCHMARK.json", compareSpec)
	base := write("a.json", resultJSON("10", "1000", "5000", "0"))

	cases := []struct {
		name, body string
		ok         bool
		want       string
	}{
		{"within bounds", resultJSON("10.9", "950", "5000", "0"), true, "+9.0%"},
		{"better is never a failure", resultJSON("5", "2000", "5000", "0"), true, "-50.0%"},
		{"latency past its bound", resultJSON("11.5", "1000", "5000", "0"), false, "+15.0%"},
		{"higher-is-better metric fell past its bound", resultJSON("10", "850", "5000", "0"), false, "+15.0%"},
		{"more failed ops", resultJSON("10", "1000", "5000", "3"), false, "ops_failed share"},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			var out bytes.Buffer
			ok, err := compareFiles(&out, spec, base, write("b.json", c.body))
			if err != nil {
				t.Fatal(err)
			}
			if ok != c.ok {
				t.Errorf("ok = %v, want %v\n%s", ok, c.ok, out.String())
			}
			if !strings.Contains(out.String(), c.want) {
				t.Errorf("output lacks %q:\n%s", c.want, out.String())
			}
		})
	}
}
