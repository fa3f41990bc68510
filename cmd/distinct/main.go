// Command distinct approximately counts distinct lines on stdin using an
// ExaLogLog sketch — a minimal end-to-end application of the library.
//
//	$ seq 1 1000000 | shuf -r -n 10000000 | distinct -p 14
//	≈ 1000123 distinct lines (0.31 % standard error, 57344 bytes)
//
// With -exact it also prints the true count (memory permitting) for
// comparison, and -martingale switches to the lower-error martingale
// estimator for this single-stream use case.
package main

import (
	"bufio"
	"flag"
	"fmt"
	"io"
	"os"

	"exaloglog"
	"exaloglog/internal/mvp"
)

func main() { os.Exit(run(os.Args[1:], os.Stdin, os.Stdout, os.Stderr)) }

// run is main without the process: it parses args (everything after the
// program name), counts the lines of stdin and returns the exit code — 0
// ok, 1 stdin could not be read, 2 usage.
func run(args []string, stdin io.Reader, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("distinct", flag.ContinueOnError)
	fs.SetOutput(stderr)
	p := fs.Int("p", 12, "precision: 2^p registers; standard error halves per +2")
	martingale := fs.Bool("martingale", false, "use the martingale estimator (single-stream, lower error)")
	exact := fs.Bool("exact", false, "also compute the exact count in memory for comparison")
	if err := fs.Parse(args); err != nil {
		return 2 // Parse has reported the error and the flag list
	}
	if *p < exaloglog.MinPrecision || *p > exaloglog.MaxPrecision {
		fmt.Fprintf(stderr, "distinct: -p %d outside [%d, %d]\n", *p, exaloglog.MinPrecision, exaloglog.MaxPrecision)
		return 2
	}

	var sketch *exaloglog.Sketch
	var stdErr float64
	if *martingale {
		sketch = exaloglog.NewMartingale(*p)
		stdErr = mvp.TheoreticalRMSE(2, 16, *p, true)
	} else {
		sketch = exaloglog.New(*p)
		stdErr = mvp.TheoreticalRMSE(2, 20, *p, false)
	}

	var exactSet map[string]struct{}
	if *exact {
		exactSet = make(map[string]struct{})
	}

	scanner := bufio.NewScanner(stdin)
	scanner.Buffer(make([]byte, 0, 1<<20), 1<<20)
	lines := 0
	for scanner.Scan() {
		line := scanner.Text()
		sketch.AddString(line)
		if exactSet != nil {
			exactSet[line] = struct{}{}
		}
		lines++
	}
	if err := scanner.Err(); err != nil {
		fmt.Fprintf(stderr, "distinct: %v\n", err)
		return 1
	}

	est := sketch.Estimate()
	fmt.Fprintf(stdout, "≈ %.0f distinct lines (of %d total; %.2f %% standard error, %d bytes of sketch)\n",
		est, lines, stdErr*100, sketch.SizeBytes())
	if exactSet != nil {
		exactN := len(exactSet)
		relErr := 0.0
		if exactN > 0 {
			relErr = (est - float64(exactN)) / float64(exactN) * 100
		}
		fmt.Fprintf(stdout, "exactly %d distinct lines (estimate off by %+.2f %%)\n", exactN, relErr)
	}
	return 0
}
