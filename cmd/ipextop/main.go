// Command ipextop is a live terminal view over any ipex metrics endpoint: a
// sweep under `experiments -listen` or an ipexd service. It polls /metrics
// (Prometheus text format), renders latency quantiles from the exported
// histograms, and — when the sweep farms cells to an ipexd fleet with
// -servers — shows each server's breaker state, attempts and failures.
//
//	ipextop localhost:9090                 # refresh every 2s until ^C
//	ipextop -interval 500ms localhost:9090
//	ipextop -n 1 localhost:9090            # one frame, no clearing (scripts)
package main

import (
	"flag"
	"fmt"
	"os"
	"strings"
	"time"
)

func main() {
	var (
		interval = flag.Duration("interval", 2*time.Second, "delay between refreshes")
		count    = flag.Int("n", 0, "number of refreshes before exiting (0 = until interrupted)")
		noClear  = flag.Bool("no-clear", false, "append frames instead of clearing the terminal")
	)
	flag.Parse()
	if flag.NArg() != 1 {
		fmt.Fprintln(os.Stderr, "usage: ipextop [flags] host:port")
		flag.PrintDefaults()
		os.Exit(2)
	}
	base := strings.TrimRight(flag.Arg(0), "/")
	if !strings.Contains(base, "://") {
		base = "http://" + base
	}

	clear := !*noClear && *count != 1
	for i := 0; *count == 0 || i < *count; i++ {
		if i > 0 {
			time.Sleep(*interval)
		}
		exp, err := poll(base)
		if clear {
			// Home the cursor and clear to end so a shrinking frame leaves
			// no stale rows behind.
			fmt.Print("\x1b[H\x1b[2J")
		}
		if err != nil {
			fmt.Fprintf(os.Stderr, "ipextop: %s: %v\n", base, err)
			if *count == 1 {
				os.Exit(1)
			}
			continue
		}
		render(os.Stdout, base, exp)
	}
}
