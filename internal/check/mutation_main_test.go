//go:build timedice_mutation

package check_test

import (
	"flag"
	"fmt"
	"os"
	"testing"
)

// TestMain refuses a run under the mutation tag that names no tests. The tag
// switches every injected bug on at once, so only the tests that CI's
// "mutation smoke" step selects with -run are meant to pass in this build;
// the rest of the package fails or runs for many minutes.
func TestMain(m *testing.M) {
	flag.Parse()
	if flag.Lookup("test.run").Value.String() == "" {
		fmt.Fprintln(os.Stderr, "built with -tags timedice_mutation: every mutant is on, so select a test with -run,")
		fmt.Fprintln(os.Stderr, "as the \"mutation smoke\" step of .github/workflows/ci.yml does")
		os.Exit(1)
	}
	os.Exit(m.Run())
}
