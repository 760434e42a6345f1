package main

import (
	"fmt"
	"strings"

	"patty/internal/evalcache"
	"patty/internal/report"
)

// cmdCache is the operator's window into a content-addressed
// evaluation store (-cache-dir of tune/worker/serve):
//
//	stats   open the store (running its recovery) and print what it holds
//	verify  read-only integrity scan; non-zero exit on any damage
//	gc      compact: rewrite live entries, drop superseded and
//	        quarantined data, then print the reclaimed bytes
//
// verify never mutates the directory, so it is safe against a store a
// live server has open. stats and gc take ownership of the directory
// and must not race a running process.
func cmdCache(args []string) error {
	fs := newFlagSet("cache")
	dir := fs.String("dir", "", "evaluation-store directory (required)")
	maxBytes := fs.Int64("max-bytes", 0, "size bound applied when opening (0: 64 MiB)")
	fs.Parse(args)
	if *dir == "" {
		return fmt.Errorf("-dir is required")
	}
	op := "stats"
	if fs.NArg() > 0 {
		op = fs.Arg(0)
	}
	switch op {
	case "stats":
		s, err := evalcache.Open(*dir, evalcache.Options{MaxBytes: *maxBytes, Collector: metrics})
		if err != nil {
			return err
		}
		defer s.Close()
		rec := s.Recovery()
		if rec.TornBytes > 0 || len(rec.Quarantined) > 0 {
			fmt.Printf("recovery: %d torn byte(s) dropped, %d segment(s) quarantined: %s\n",
				rec.TornBytes, len(rec.Quarantined), strings.Join(rec.Quarantined, ", "))
		}
		fmt.Print(report.Status(metrics.Snapshot()))
		return nil
	case "verify":
		rep, err := evalcache.VerifyDir(*dir)
		if err != nil {
			return err
		}
		fmt.Printf("verified %d segment(s): %d entr(y/ies), %d byte(s)\n",
			rep.Segments, rep.Entries, rep.Bytes)
		for _, p := range rep.Problems {
			fmt.Println("  " + p)
		}
		if len(rep.Problems) > 0 {
			return fmt.Errorf("%d problem(s) found", len(rep.Problems))
		}
		return nil
	case "gc":
		s, err := evalcache.Open(*dir, evalcache.Options{MaxBytes: *maxBytes, Collector: metrics})
		if err != nil {
			return err
		}
		defer s.Close()
		bytes := metrics.Gauge("cache.bytes")
		before := bytes.Value()
		if err := s.Compact(); err != nil {
			return err
		}
		fmt.Printf("compacted %s: %d -> %d byte(s) (%d entr(y/ies) live)\n",
			*dir, before, bytes.Value(), metrics.Gauge("cache.entries").Value())
		return nil
	default:
		return fmt.Errorf("unknown cache operation %q (want stats, verify or gc)", op)
	}
}
