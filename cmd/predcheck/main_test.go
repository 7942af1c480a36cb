package main

import (
	"bytes"
	"errors"
	"os"
	"os/exec"
	"strings"
	"testing"
)

// The command parses the process's flags and exits through os.Exit, so the
// tests run it as a process: the test binary re-executes itself with
// runMainEnv set and TestMain hands that process to main.
const runMainEnv = "PREDCHECK_TEST_RUN_MAIN"

func TestMain(m *testing.M) {
	if os.Getenv(runMainEnv) == "1" {
		main()
		return
	}
	os.Exit(m.Run())
}

func predcheck(t *testing.T, args ...string) (stdout, stderr string, exit int) {
	t.Helper()
	cmd := exec.Command(os.Args[0], args...)
	cmd.Env = append(os.Environ(), runMainEnv+"=1")
	var out, errb bytes.Buffer
	cmd.Stdout, cmd.Stderr = &out, &errb
	if err := cmd.Run(); err != nil {
		var ee *exec.ExitError
		if !errors.As(err, &ee) {
			t.Fatal(err)
		}
		exit = ee.ExitCode()
	}
	return out.String(), errb.String(), exit
}

func TestGoodPredicatePrintsFormReadsAndBytecode(t *testing.T) {
	out, stderr, exit := predcheck(t, "-builtin", "ec2", "-self", "2", "-types", "verified",
		"MIN(($ALLWNODES-$MYWNODE).verified)")
	if exit != 0 {
		t.Fatalf("exit %d: %s", exit, stderr)
	}
	for _, want := range []string{
		"canonical: MIN(($ALLWNODES-$MYWNODE).verified)",
		"8 WAN nodes, self=NCal_B ($2)",
		"reads:     $1=NCal_A, $3=NVir_A,", // everyone but self
		"bytecode (8 instructions):",
		"LOAD   node=1 type=16", // the first application-defined type id
		"MIN",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("output lacks %q:\n%s", want, out)
		}
	}
	if strings.Contains(out, "$2=NCal_B") {
		t.Errorf("$MYWNODE was subtracted but is still read:\n%s", out)
	}
}

func TestCompileErrorsCarryAPosition(t *testing.T) {
	for _, tc := range []struct{ name, source, want string }{
		{"syntax", "MIN($ALLWNODES", "syntax error at offset 14"},
		{"resolve", "MIN($ALLWNODES.bogus)", `resolve error at offset 4: unknown stability type "bogus"`},
	} {
		t.Run(tc.name, func(t *testing.T) {
			_, stderr, exit := predcheck(t, "-builtin", "ec2", tc.source)
			if exit != 1 || !strings.Contains(stderr, tc.want) {
				t.Fatalf("exit %d, stderr %q; want exit 1 naming %q", exit, stderr, tc.want)
			}
		})
	}
}

func TestUsageErrors(t *testing.T) {
	if _, stderr, exit := predcheck(t, "MIN($1)"); exit != 1 || !strings.Contains(stderr, "-topology FILE or -builtin") {
		t.Fatalf("no topology: exit %d, stderr %q", exit, stderr)
	}
	if _, stderr, exit := predcheck(t, "-builtin", "ec2"); exit != 1 || !strings.Contains(stderr, "exactly one predicate") {
		t.Fatalf("no predicate: exit %d, stderr %q", exit, stderr)
	}
}
