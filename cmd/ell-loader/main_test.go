package main

import (
	"bytes"
	"encoding/json"
	"strings"
	"testing"
)

// invoke runs one ell-loader invocation.
func invoke(args ...string) (code int, stdout, stderr string) {
	var out, errOut bytes.Buffer
	code = run(args, &out, &errOut)
	return code, out.String(), errOut.String()
}

func TestRunSelfCluster(t *testing.T) {
	code, out, errOut := invoke("-self", "2", "-duration", "300ms", "-warmup", "50ms", "-conns", "1")
	if code != 0 {
		t.Fatalf("exit %d, stderr %q", code, errOut)
	}
	var res result
	if err := json.Unmarshal([]byte(out), &res); err != nil {
		t.Fatalf("stdout is not the JSON result: %v\n%s", err, out)
	}
	if res.Tool != "ell-loader" || len(res.Addrs) != 2 || res.Route != "coordinator" {
		t.Errorf("result does not describe the run: %+v", res)
	}
	if res.Ops == 0 || res.Errors != 0 || res.AchievedQPS <= 0 {
		t.Errorf("ops=%d errors=%d achieved_qps=%v, want ops > 0 and no errors", res.Ops, res.Errors, res.AchievedQPS)
	}
	if !strings.Contains(errOut, "0 errors") {
		t.Errorf("summary line missing from stderr: %q", errOut)
	}
}

func TestRunRefusesBadUsage(t *testing.T) {
	for _, tc := range []struct {
		args   []string
		reason string
	}{
		{[]string{"-self", "2", "-dist", "pareto"}, `unknown -dist "pareto"`},
		{[]string{"-duration", "100ms"}, "no targets: set -addrs or -self"},
		{[]string{"-self", "2", "-mix", "pfadd"}, "bad -mix entry"},
		{[]string{"-self", "2", "-conns", "0"}, "must be >= 1"},
		{[]string{"-bogus"}, "flag provided but not defined"},
	} {
		code, out, errOut := invoke(tc.args...)
		if code != 2 || out != "" || !strings.Contains(errOut, tc.reason) {
			t.Errorf("%v: exit %d, stdout %q, stderr %q; want exit 2 and %q on stderr", tc.args, code, out, errOut, tc.reason)
		}
	}
}
