package main

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
	"text/tabwriter"
)

// endToEndValues collects, per end-to-end metric, the values of the untraced
// runs of one workload.
func endToEndValues(runs []runRecorded, workload string) map[string][]float64 {
	out := make(map[string][]float64)
	for _, r := range runs {
		if r.Workload != workload || r.Trace {
			continue
		}
		for name, m := range r.Result.Metrics {
			out[name] = append(out[name], m.Value)
		}
	}
	return out
}

// printSpread is the -repeat table: median, quartiles and the quartile
// distance as a share of the median, against the metric's bound.
func printSpread(w io.Writer, workload string, runs []runRecorded) {
	vals := endToEndValues(runs, workload)
	tw := tabwriter.NewWriter(w, 0, 4, 2, ' ', 0)
	fmt.Fprintf(tw, "%s\tn\tmedian\tq1\tq3\tunit\tspread\tbound\n", workload)
	for _, d := range endToEnd {
		xs := vals[d.Name]
		q1, q3 := quartiles(xs)
		fmt.Fprintf(tw, "%s\t%d\t%.6g\t%.6g\t%.6g\t%s\t%.1f%%\t%.0f%%\n",
			d.Name, len(xs), median(xs), q1, q3, d.Unit, 100*spread(xs), 100*d.Bound)
	}
	tw.Flush()
}

// verdict compares the runs b of one metric on one workload against the runs
// a. The change is the move of the median as a share of a's, signed so that
// positive is worse. Where either side's own run-to-run spread exceeds the
// bound, a move of the size the bound guards against cannot be told from
// noise: unresolved, not same.
func verdict(d metricDef, a, b []float64) (v string, change float64) {
	ma, mb := median(a), median(b)
	if len(a) == 0 || len(b) == 0 || ma == 0 {
		return "unresolved", 0
	}
	change = (mb - ma) / ma
	if d.Better == "higher" {
		change = -change
	}
	switch {
	case spread(a) > d.Bound || spread(b) > d.Bound:
		return "unresolved", change
	case change > d.Bound:
		return "worse", change
	case change < -d.Bound:
		return "better", change
	}
	return "same", change
}

func readOutFile(path string) (outFile, error) {
	var f outFile
	b, err := os.ReadFile(path)
	if err != nil {
		return f, err
	}
	if err := json.Unmarshal(b, &f); err != nil {
		return f, fmt.Errorf("%s: %w", path, err)
	}
	return f, nil
}

// compareFiles prints one row per workload and end-to-end metric: both
// sides' medians and quartiles, the change, and the verdict.
func compareFiles(w io.Writer, pathA, pathB string) error {
	a, err := readOutFile(pathA)
	if err != nil {
		return err
	}
	b, err := readOutFile(pathB)
	if err != nil {
		return err
	}
	tw := tabwriter.NewWriter(w, 0, 4, 2, ' ', 0)
	fmt.Fprintln(tw, "workload\tmetric\tunit\ta: median [q1, q3] n\tb: median [q1, q3] n\tchange (+ is worse)\tbound\tverdict")
	for _, wl := range workloads {
		va, vb := endToEndValues(a.Runs, wl.Name), endToEndValues(b.Runs, wl.Name)
		for _, d := range endToEnd {
			xa, xb := va[d.Name], vb[d.Name]
			qa1, qa3 := quartiles(xa)
			qb1, qb3 := quartiles(xb)
			v, change := verdict(d, xa, xb)
			fmt.Fprintf(tw, "%s\t%s\t%s\t%.5g [%.5g, %.5g] %d\t%.5g [%.5g, %.5g] %d\t%+.1f%%\t%.0f%%\t%s\n",
				wl.Name, d.Name, d.Unit, median(xa), qa1, qa3, len(xa), median(xb), qb1, qb3, len(xb),
				100*change, 100*d.Bound, v)
		}
	}
	return tw.Flush()
}
