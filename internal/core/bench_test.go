package core

import "testing"

// BenchmarkAddHash is the dense insert on the default configuration, whose
// 28-bit registers go through bitpack's generic accessor: the row that
// must not slow down when the register array's load padding goes away.
func BenchmarkAddHash(b *testing.B) {
	s := MustNew(RecommendedML(12))
	r := rng(1)
	hashes := make([]uint64, 1<<16)
	for i := range hashes {
		hashes[i] = r.Uint64()
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		s.AddHash(hashes[i&(len(hashes)-1)])
	}
}
