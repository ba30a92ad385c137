// Command squashctl is the operator CLI for a squashrouter cluster. It
// speaks the daemon wire protocol to the router's admin plane (either
// listener) and exposes the fleet controls:
//
//	squashctl -connect tcp:127.0.0.1:7701 list            # per-backend state table
//	squashctl -connect tcp:127.0.0.1:7701 stats           # merged fleet snapshot (JSON)
//	squashctl -connect tcp:127.0.0.1:7701 drain unix:/tmp/sq2.sock
//	squashctl -connect tcp:127.0.0.1:7701 undrain unix:/tmp/sq2.sock
//	squashctl -connect tcp:127.0.0.1:7701 ping
//
// -json switches list to the raw cluster snapshot, for scripts.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"time"

	"repro/internal/serve"
)

func main() {
	connect := flag.String("connect", "", "router address (main or -admin listener)")
	asJSON := flag.Bool("json", false, "list: print the raw cluster snapshot as JSON")
	flag.Parse()

	if *connect == "" || flag.NArg() < 1 {
		fmt.Fprintln(os.Stderr, "usage: squashctl -connect ADDR (list | stats | drain BACKEND | undrain BACKEND | ping)")
		os.Exit(2)
	}

	cl, err := serve.DialClient(*connect)
	if err != nil {
		fail(err)
	}
	defer cl.Close()

	switch cmd := flag.Arg(0); cmd {
	case "list":
		resp := must(cl.Do(&serve.Request{Op: serve.OpCluster}))
		if *asJSON {
			printJSON(resp.Cluster)
			return
		}
		printCluster(resp.Cluster)

	case "stats":
		resp := must(cl.Do(&serve.Request{Op: serve.OpStats}))
		printJSON(resp.Server)

	case "drain", "undrain":
		if flag.NArg() != 2 {
			fail(fmt.Errorf("%s needs a backend address argument", cmd))
		}
		op := serve.OpDrain
		if cmd == "undrain" {
			op = serve.OpUndrain
		}
		resp := must(cl.Do(&serve.Request{Op: op, Backend: flag.Arg(1)}))
		fmt.Printf("%sed %s\n", cmd, flag.Arg(1))
		printCluster(resp.Cluster)

	case "ping":
		start := time.Now()
		must(cl.Do(&serve.Request{Op: serve.OpPing}))
		fmt.Printf("router at %s is up (%s)\n", *connect, time.Since(start).Round(time.Microsecond))

	default:
		fail(fmt.Errorf("unknown command %q (want list, stats, drain, undrain, or ping)", cmd))
	}
}

// printCluster renders the per-backend table: state, traffic, failure
// streaks, probe age, and each backend's own result-cache hit rate.
func printCluster(cs *serve.ClusterSnapshot) {
	if cs == nil {
		fail(fmt.Errorf("response carried no cluster snapshot (is %q a squashrouter?)", "-connect"))
	}
	fmt.Printf("%d backends\n", len(cs.Backends))
	fmt.Printf("%-28s %-9s %9s %9s %7s %6s %10s %9s\n",
		"BACKEND", "STATE", "REQUESTS", "ERRORS", "INFLT", "FAILS", "CHECKED", "HITRATE")
	for _, b := range cs.Backends {
		checked := "never"
		if b.SinceCheckSec >= 0 {
			checked = fmt.Sprintf("%.1fs ago", b.SinceCheckSec)
		}
		hitRate := "-"
		if s := b.Stats; s != nil {
			if total := s.SquashCacheHits + s.SquashCacheMisses; total > 0 {
				hitRate = fmt.Sprintf("%5.1f%%", 100*float64(s.SquashCacheHits)/float64(total))
			}
		}
		fmt.Printf("%-28s %-9s %9d %9d %7d %6d %10s %9s\n",
			b.Addr, b.State, b.Requests, b.Errors, b.InFlight, b.ConsecFails, checked, hitRate)
	}
	if m := cs.Merged; m != nil {
		total := m.SquashCacheHits + m.SquashCacheMisses
		rate := 0.0
		if total > 0 {
			rate = 100 * float64(m.SquashCacheHits) / float64(total)
		}
		fmt.Printf("merged: errors=%d timeouts=%d squash_cache=%d/%d (%.1f%% hit) prep_errors=%d\n",
			m.Errors, m.Timeouts, m.SquashCacheHits, total, rate, m.PrepErrors)
	}
}

func printJSON(v any) {
	enc := json.NewEncoder(os.Stdout)
	enc.SetIndent("", "  ")
	if err := enc.Encode(v); err != nil {
		fail(err)
	}
}

func must(resp *serve.Response, err error) *serve.Response {
	if err != nil {
		fail(err)
	}
	if !resp.OK {
		fail(fmt.Errorf("router: %s", resp.Err))
	}
	return resp
}

func fail(err error) {
	fmt.Fprintln(os.Stderr, "squashctl:", err)
	os.Exit(1)
}
