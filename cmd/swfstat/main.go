// Command swfstat characterizes an SWF workload trace the way the paper's
// Section 2.2 characterizes CPlant/Ross: Table 1 (job counts), Table 2
// (processor-hours) and the Figure 4-7 statistics (node-allocation
// standards, estimate accuracy, overestimation factors).
//
// Usage:
//
//	swfstat -in ross.swf
//	workloadgen | swfstat
package main

import (
	"flag"
	"fmt"
	"io"
	"os"

	"fairsched/internal/experiments"
	"fairsched/internal/swf"
)

func main() {
	in := flag.String("in", "", "input SWF file (default stdin)")
	keepCanc := flag.Bool("keep-cancelled", false, "characterize cancelled (status 5) records too, the pre-filtering behaviour")
	flag.Parse()

	var r io.Reader = os.Stdin
	if *in != "" {
		f, err := os.Open(*in)
		if err != nil {
			fatal(err)
		}
		defer f.Close()
		r = f
	}
	jobs, _, err := swf.ReadJobs(r, swf.ConvertOptions{KeepCancelled: *keepCanc})
	if err != nil {
		fatal(err)
	}
	if len(jobs) == 0 {
		fatal(fmt.Errorf("no jobs in trace"))
	}
	c := experiments.Characterize(jobs)
	experiments.RenderTable1(os.Stdout, c.Table1)
	experiments.RenderTable2(os.Stdout, c.Table2)
	experiments.RenderCharacterization(os.Stdout, c)
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "swfstat:", err)
	os.Exit(1)
}
