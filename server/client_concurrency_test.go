package server

import (
	"fmt"
	"sync"
	"testing"

	"exaloglog/internal/core"
)

func startTestServer(t *testing.T) *Server {
	t.Helper()
	store, err := NewStore(core.RecommendedML(10))
	if err != nil {
		t.Fatal(err)
	}
	srv := NewServer(store)
	if err := srv.Listen("127.0.0.1:0"); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { srv.Close() })
	return srv
}

// TestClientConcurrentUse hammers one shared Client from many
// goroutines; command/reply pairs must never interleave (run with -race).
func TestClientConcurrentUse(t *testing.T) {
	srv := startTestServer(t)
	c, err := Dial(srv.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()

	const goroutines, ops = 8, 50
	var wg sync.WaitGroup
	errs := make(chan error, goroutines)
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			key := fmt.Sprintf("key-%d", g)
			for i := 0; i < ops; i++ {
				if _, err := c.PFAdd(key, fmt.Sprintf("el-%d", i)); err != nil {
					errs <- err
					return
				}
				n, err := c.PFCount(key)
				if err != nil {
					errs <- err
					return
				}
				if n < 1 || n > ops+ops/10 {
					errs <- fmt.Errorf("goroutine %d: PFCount(%s) = %d, out of range (interleaved replies?)", g, key, n)
					return
				}
			}
		}(g)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
}
