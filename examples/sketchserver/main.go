// A Redis-style sketch service: PFADD / PFCOUNT / PFMERGE over TCP,
// backed by ExaLogLog instead of HyperLogLog — same commands, 43 % less
// memory per key (paper Section 1).
//
// The example starts an in-process server on a random port, populates
// per-day visitor sketches from three application shards, and answers
// union queries over days — then moves a sketch between "machines" with
// DUMP/RESTORE to show that the serialized form is portable.
//
// Run with:
//
//	go run ./examples/sketchserver
package main

import (
	"fmt"

	"exaloglog"
	"exaloglog/server"
)

func main() {
	store, err := server.NewStore(exaloglog.Config{T: 2, D: 20, P: 12})
	if err != nil {
		panic(err)
	}
	srv := server.NewServer(store)
	if err := srv.Listen("127.0.0.1:0"); err != nil {
		panic(err)
	}
	defer srv.Close()
	fmt.Printf("sketch server listening on %s\n\n", srv.Addr())

	c, err := server.Dial(srv.Addr())
	if err != nil {
		panic(err)
	}
	defer c.Close()

	// Three shards report the visitors they saw; overlap between days is
	// deduplicated by the sketch union.
	for shard := 0; shard < 3; shard++ {
		for day := 0; day < 2; day++ {
			key := fmt.Sprintf("visitors:day%d", day)
			batch := make([]string, 0, 1000)
			for i := 0; i < 5000; i++ {
				// Each day has 15k distinct visitors (5k per shard);
				// day 1 shares 7.5k of them with day 0.
				id := shard*5000 + i
				if day == 1 {
					id += 7500
				}
				batch = append(batch, fmt.Sprintf("visitor-%d", id))
				if len(batch) == 1000 {
					if _, err := c.PFAdd(key, batch...); err != nil {
						panic(err)
					}
					batch = batch[:0]
				}
			}
		}
	}

	day0, _ := c.PFCount("visitors:day0")
	day1, _ := c.PFCount("visitors:day1")
	both, _ := c.PFCount("visitors:day0", "visitors:day1")
	fmt.Printf("PFCOUNT visitors:day0            → %d (true 15000)\n", day0)
	fmt.Printf("PFCOUNT visitors:day1            → %d (true 15000)\n", day1)
	fmt.Printf("PFCOUNT day0 day1 (union)        → %d (true 22500, overlap deduplicated)\n", both)

	// Persist the union under its own key.
	if err := c.PFMerge("visitors:week", "visitors:day0", "visitors:day1"); err != nil {
		panic(err)
	}
	week, _ := c.PFCount("visitors:week")
	fmt.Printf("PFMERGE week day0 day1; PFCOUNT  → %d\n\n", week)

	// Ship the sketch to another process: for a key this size DUMP is just
	// the 8-byte header plus the dense register array (fast, Section 5.3);
	// a key below break-even ships its hash tokens instead.
	blob, err := c.Dump("visitors:week")
	if err != nil {
		panic(err)
	}
	if err := c.Restore("visitors:week-copy", blob); err != nil {
		panic(err)
	}
	copied, _ := c.PFCount("visitors:week-copy")
	fmt.Printf("DUMP → %d bytes; RESTORE → PFCOUNT %d (identical)\n", len(blob), copied)

	keys, _ := c.Keys()
	fmt.Printf("KEYS → %v\n", keys)
}
