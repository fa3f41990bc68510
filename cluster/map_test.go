package cluster

import (
	"fmt"
	"go/ast"
	"go/parser"
	"go/token"
	"io/fs"
	"math/bits"
	"math/rand"
	"slices"
	"strconv"
	"strings"
	"testing"
)

// entries builds a map of replica factor 2 from id=addr=counter tokens.
func entries(t testing.TB, toks ...string) *Map {
	t.Helper()
	m, err := DecodeMap(append([]string{mapWireTag, "2"}, toks...))
	if err != nil {
		t.Fatal(err)
	}
	return m
}

// TestMapOrdering pins the order the join that SETMAP, gossip and digest
// rounds rest on settles conflicts by: per ID the higher counter wins, at
// equal counters the larger address — of two distinct entries of one ID
// exactly one wins, and no entry beats itself —, an ID one side lacks is
// kept, and the replica factor is the larger. A join that adds nothing
// returns the map it was called on.
func TestMapOrdering(t *testing.T) {
	t.Parallel()
	cases := []struct {
		name    string
		a, b    []string
		want    string // the join's entries
		wantIns []string
	}{
		{"higher counter wins", []string{"n1=a:1=1"}, []string{"n1=a:1=2"}, "n1=a:1=2", nil},
		{"a rejoin beats the leave it follows", []string{"n1=a:1=3"}, []string{"n1=a:1=2"}, "n1=a:1=3", []string{"n1"}},
		{"equal counters: the larger address", []string{"n1=a:1=3"}, []string{"n1=a:2=3"}, "n1=a:2=3", []string{"n1"}},
		{"IDs of one side are kept", []string{"n1=a:1=1"}, []string{"n2=a:2=2"}, "n1=a:1=1 n2=a:2=2", []string{"n1"}},
	}
	for _, c := range cases {
		a, b := entries(t, c.a...), entries(t, c.b...)
		for _, j := range []*Map{a.join(b), b.join(a)} {
			if got := strings.TrimPrefix(j.Encode(), mapWireTag+" 2 "); got != c.want {
				t.Errorf("%s: join holds %q, want %q", c.name, got, c.want)
			}
			var ins []string
			for _, mem := range j.Members() {
				ins = append(ins, mem.ID)
			}
			if !slices.Equal(ins, c.wantIns) {
				t.Errorf("%s: members %v, want %v", c.name, ins, c.wantIns)
			}
		}
	}
	rivals := []Entry{{Member{"n1", "a:1"}, 1}, {Member{"n1", "a:2"}, 1}, {Member{"n1", "a:1"}, 2}, {Member{"n1", "a:0"}, 3}}
	for _, e := range rivals {
		for _, f := range rivals {
			if e == f && e.beats(f) || e != f && e.beats(f) == f.beats(e) {
				t.Errorf("%+v beats %+v = %v and the reverse = %v, want exactly one winner of distinct entries",
					e, f, e.beats(f), f.beats(e))
			}
		}
	}
	m := NewMap(1, Member{"n1", "a:1"})
	if j := m.join(NewMap(3, Member{"n1", "a:1"})); j.Replicas != 3 {
		t.Errorf("joined replica factor %d, want the larger, 3", j.Replicas)
	}
	if m.join(NewMap(1)) != m || m.join(m) != m {
		t.Error("a join that adds nothing built a new map")
	}
	if d := NewMap(1, Member{"n1", "a:1"}, Member{"n1", "a:2"}); len(d.Entries()) != 1 || d.Addr("n1") != "a:2" {
		t.Errorf("NewMap of one ID at two addresses: %s, want it once at the larger", d.Encode())
	}
}

// TestMapMutationsAdvanceOrder: withNode and withoutNode move one counter
// — a join to the next odd value, a re-address two up, a leave to the next
// even value — so every change lands strictly above its parent in the
// join's order and raises the height, and encode/decode keeps the state
// exactly.
func TestMapMutationsAdvanceOrder(t *testing.T) {
	t.Parallel()
	m := NewMap(2, Member{"n1", "a:1"}, Member{"n2", "a:2"})
	for _, st := range []struct {
		name    string
		change  func(*Map) *Map
		id      string
		counter uint64
	}{
		{"join a new ID", func(m *Map) *Map { return m.withNode("n3", "a:3") }, "n3", 1},
		{"leave", func(m *Map) *Map { return m.withoutNode("n1") }, "n1", 2},
		{"rejoin", func(m *Map) *Map { return m.withNode("n1", "a:1") }, "n1", 3},
		{"re-address", func(m *Map) *Map { return m.withNode("n1", "a:9") }, "n1", 5},
	} {
		next := st.change(m)
		if e := next.entry(st.id); e == nil || e.Counter != st.counter {
			t.Errorf("%s: %s's entry is %+v, want counter %d", st.name, st.id, e, st.counter)
		}
		if next.Height() <= m.Height() || next.join(m) != next {
			t.Errorf("%s: %s is not above %s", st.name, next.Encode(), m.Encode())
		}
		m = next
	}
	if m.withoutNode("ghost") != m || m.withoutNode("n1").withoutNode("n1").Encode() != m.withoutNode("n1").Encode() {
		t.Error("leaving an ID that is not in changed the map")
	}
	if !m.Has("n1") || m.Addr("n1") != "a:9" || m.Len() != 3 {
		t.Fatalf("after the steps: %s", m.Encode())
	}
	dec, err := DecodeMap(strings.Fields(m.Encode()))
	if err != nil {
		t.Fatal(err)
	}
	if dec.Encode() != m.Encode() || dec.Digest() != m.Digest() || dec.Height() != m.Height() {
		t.Errorf("round trip changed the state: %q vs %q", dec.Encode(), m.Encode())
	}
}

// FuzzMapDecode: a corrupt or adversarial SETMAP payload must never
// panic a node, and anything DecodeMap accepts must re-encode to a
// byte-stable, re-decodable form (otherwise two nodes could disagree
// about one map) whose height did not wrap.
func FuzzMapDecode(f *testing.F) {
	f.Add("v4 2 n1=127.0.0.1:7700=1 n2=127.0.0.1:7701=3")
	f.Add("v4 1 x=y=4503599627370495")
	f.Add("v4 1 x=y=4503599627370496") // above maxCounter
	f.Add("v4 4096 a=b=1")
	f.Add("v4 2 n1=a:1=2 n2=a:2=4")       // only out IDs
	f.Add("v4 2 n1=a:1=1 n1=a:2=3")       // a duplicate ID
	f.Add("v4 2 n1=a:1=1 n2=a:1=1")       // two IDs on one address
	f.Add("v3 1 1 - 2 n1=127.0.0.1:7700") // the retired epoch-ordered payload
	f.Add("")
	f.Add("v4 2 id=a=b=1")
	f.Add("v4 2 n1=a=0")
	f.Add("v4 2 n1=a=-1")
	f.Fuzz(func(t *testing.T, payload string) {
		tokens := strings.Fields(payload)
		m, err := DecodeMap(tokens)
		if err != nil {
			return // rejected cleanly — that's fine
		}
		if m.Replicas < 1 {
			t.Fatalf("DecodeMap(%q) accepted a degenerate map: %+v", payload, m)
		}
		// Whatever was accepted must route without panicking.
		if owners := m.Owners("some-key"); len(owners) == 0 && m.Len() > 0 {
			t.Fatalf("accepted map owns nothing: %q", payload)
		}
		var sum, carry uint64
		for _, e := range m.Entries() {
			sum, carry = bits.Add64(sum, e.Counter, carry)
		}
		if carry != 0 || sum != m.Height() {
			t.Fatalf("height of %q wrapped or is wrong: %d", payload, m.Height())
		}
		enc := m.Encode()
		m2, err := DecodeMap(strings.Fields(enc))
		if err != nil {
			t.Fatalf("re-decode of %q (from %q) failed: %v", enc, payload, err)
		}
		if m2.Encode() != enc {
			t.Fatalf("encode not stable: %q → %q", enc, m2.Encode())
		}
	})
}

// fuzzState builds a map from fuzz bytes: the first sets the replica
// factor (1–3), and each later pair one entry — an ID of eight and a
// counter of 1–8 from the first byte, an address of three from the second
// — joined in as a single-entry state.
func fuzzState(data []byte) *Map {
	replicas := 1
	if len(data) > 0 {
		replicas += int(data[0] % 3)
		data = data[1:]
	}
	m := build(replicas, nil)
	for ; len(data) >= 2; data = data[2:] {
		e := Entry{Member{fmt.Sprintf("n%d", data[0]%8), fmt.Sprintf("a:%d", data[1]%3)}, uint64(data[0]/8%8) + 1}
		m = m.join(build(replicas, []Entry{e}))
	}
	return m
}

// FuzzMapJoin checks the lattice laws the cluster's convergence rests on:
// the join is commutative, associative and idempotent, and is an upper
// bound of both sides; and equal states, whatever order they were joined
// in, give equal Owners, digests and Encode bytes, also after a round
// trip through DecodeMap.
func FuzzMapJoin(f *testing.F) {
	f.Add([]byte{1, 8, 0, 16, 1}, []byte{0, 8, 2, 25, 0}, []byte{2, 17, 1})
	f.Add([]byte{0, 1, 0, 9, 1}, []byte{0, 1, 2}, []byte{})
	f.Add([]byte{2, 3, 0, 11, 0, 19, 2}, []byte{1, 3, 1, 12, 0}, []byte{0, 4, 0, 20, 1})
	f.Add([]byte{}, []byte{}, []byte{})
	f.Fuzz(func(t *testing.T, da, db, dc []byte) {
		a, b, c := fuzzState(da), fuzzState(db), fuzzState(dc)
		same := func(law string, x, y *Map) {
			t.Helper()
			if x.Encode() != y.Encode() || x.Digest() != y.Digest() || x.Height() != y.Height() {
				t.Fatalf("%s: %q vs %q", law, x.Encode(), y.Encode())
			}
			for i := 0; i < 16; i++ {
				key := fmt.Sprintf("k%d", i)
				if ox, oy := x.Owners(key), y.Owners(key); !slices.Equal(ox, oy) {
					t.Fatalf("%s: owners of %s differ: %v vs %v", law, key, ox, oy)
				}
			}
		}
		same("commutative", a.join(b), b.join(a))
		same("associative", a.join(b).join(c), a.join(b.join(c)))
		same("idempotent", a.join(a), a)
		abc := a.join(b).join(c)
		same("order-free", abc, c.join(a).join(b))
		if abc.join(a) != abc || abc.join(b) != abc || abc.join(c) != abc {
			t.Fatalf("%q is not above every side", abc.Encode())
		}
		dec, err := DecodeMap(strings.Fields(abc.Encode()))
		if err != nil {
			t.Fatalf("decode %q: %v", abc.Encode(), err)
		}
		same("round trip", dec, abc)
	})
}

// TestEncodeCanonical: equal maps built in different ways encode
// byte-identically — the property the harness's convergence check and
// the snapshot metadata both rely on.
func TestEncodeCanonical(t *testing.T) {
	t.Parallel()
	a := NewMap(2, Member{"b", "a:2"}, Member{"a", "a:1"}, Member{"c", "a:3"})
	b := NewMap(2, Member{"c", "a:3"}, Member{"a", "a:1"}, Member{"b", "a:2"})
	if a.Encode() != b.Encode() {
		t.Errorf("member insertion order leaked into the encoding:\n%q\n%q", a.Encode(), b.Encode())
	}
	for i := 0; i < 50; i++ {
		key := fmt.Sprintf("k%d", i)
		ao, bo := ownerIDs(a, key), ownerIDs(b, key)
		for j := range ao {
			if ao[j] != bo[j] {
				t.Fatalf("owners differ for %q: %v vs %v", key, ao, bo)
			}
		}
	}
}

// TestMapsTravelOnlyAsSetmapOrMap fences the map's wire form: a map leaves
// a node only as CLUSTER SETMAP (setmapCommand) or a CLUSTER MAP reply
// (handleMap), besides the snapshot metadata swapMap keeps, and it is read
// only from those and the snapshot. Everything else that tells nodes apart
// — gossip digests, DSUM/DKEYS, XFER frames — carries the map's digest or
// height. The
// package's non-test files are parsed, and every use of a method named
// Encode called with no arguments ((*Map).Encode; the base64 encoders take
// two) and of DecodeMap is attributed to its enclosing function.
func TestMapsTravelOnlyAsSetmapOrMap(t *testing.T) {
	t.Parallel()
	allowed := map[string][]string{
		"Encode":    {"setmapCommand", "Node.handleMap", "Node.update"},
		"DecodeMap": {"Node.handleSetMap", "pool.fetchMap", "Node.persistedMap"},
	}
	fset := token.NewFileSet()
	pkgs, err := parser.ParseDir(fset, ".", func(fi fs.FileInfo) bool {
		return !strings.HasSuffix(fi.Name(), "_test.go")
	}, 0)
	if err != nil {
		t.Fatal(err)
	}
	found := map[string][]string{}
	for _, file := range pkgs["cluster"].Files {
		for _, decl := range file.Decls {
			fn := ""
			if fd, ok := decl.(*ast.FuncDecl); ok {
				fn = fd.Name.Name
				if fd.Recv != nil {
					recv := fd.Recv.List[0].Type
					if star, ok := recv.(*ast.StarExpr); ok {
						recv = star.X
					}
					fn = recv.(*ast.Ident).Name + "." + fn
				}
			}
			ast.Inspect(decl, func(node ast.Node) bool {
				use := ""
				switch x := node.(type) {
				case *ast.CallExpr:
					if sel, ok := x.Fun.(*ast.SelectorExpr); ok && sel.Sel.Name == "Encode" && len(x.Args) == 0 {
						use = "Encode"
					}
				case *ast.Ident:
					if x.Name == "DecodeMap" && fn != "DecodeMap" {
						use = "DecodeMap"
					}
				}
				if use != "" {
					if !slices.Contains(allowed[use], fn) {
						t.Errorf("%s: %s in %q — maps travel only as CLUSTER SETMAP and CLUSTER MAP", fset.Position(node.Pos()), use, fn)
					}
					found[use] = append(found[use], fn)
				}
				return true
			})
		}
	}
	for use, fns := range allowed {
		for _, fn := range fns {
			if !slices.Contains(found[use], fn) {
				t.Errorf("%s no longer uses %s: drop it from the fence", fn, use)
			}
		}
	}
}

// memberMap is a map of n members n000, n001, … at replica factor
// replicas; no node listens on their addresses.
func memberMap(n, replicas int) *Map {
	members := make([]Member, n)
	for i := range members {
		members[i] = Member{ID: fmt.Sprintf("n%03d", i), Addr: fmt.Sprintf("10.0.0.1:%d", 7000+i)}
	}
	return NewMap(replicas, members...)
}

// ownerIDs returns the IDs of key's owners under m, primary first.
func ownerIDs(m *Map, key string) []string {
	owners := m.Owners(key)
	ids := make([]string, len(owners))
	for i, o := range owners {
		ids[i] = o.ID
	}
	return ids
}

// TestRingOwnersDistinctAndDeterministic: a key's owners are Replicas
// distinct members, the same on every call and on a map built from the
// members in another order, and their addresses are the members'.
func TestRingOwnersDistinctAndDeterministic(t *testing.T) {
	t.Parallel()
	members := []Member{{"a", "a:1"}, {"b", "a:2"}, {"c", "a:3"}, {"d", "a:4"}}
	m := NewMap(3, members...)
	shuffled := NewMap(3, members[2], members[0], members[3], members[1])
	for i := 0; i < 1000; i++ {
		key := fmt.Sprintf("key-%d", i)
		owners := m.Owners(key)
		if len(owners) != 3 {
			t.Fatalf("Owners(%q) = %v, want 3", key, owners)
		}
		seen := map[string]bool{}
		for _, o := range owners {
			if seen[o.ID] || o.Addr != m.Addr(o.ID) {
				t.Fatalf("Owners(%q) = %v: a repeated member or a wrong address", key, owners)
			}
			seen[o.ID] = true
		}
		if again, other := m.Owners(key), shuffled.Owners(key); !slices.Equal(owners, again) || !slices.Equal(owners, other) {
			t.Fatalf("Owners(%q) not deterministic: %v, %v, %v", key, owners, again, other)
		}
	}
}

// TestRingFewerNodesThanReplicas: with fewer members than replicas every
// member owns every key; an empty map owns none.
func TestRingFewerNodesThanReplicas(t *testing.T) {
	t.Parallel()
	if owners := ownerIDs(NewMap(3, Member{"solo", "a:1"}), "k"); !slices.Equal(owners, []string{"solo"}) {
		t.Fatalf("Owners = %v, want [solo]", owners)
	}
	m := NewMap(3, Member{"a", "a:1"}, Member{"b", "a:2"})
	for i := 0; i < 100; i++ {
		if owners := ownerIDs(m, fmt.Sprintf("key-%d", i)); len(owners) != 2 || !slices.Contains(owners, "a") || !slices.Contains(owners, "b") {
			t.Fatalf("Owners = %v, want a and b", owners)
		}
	}
	if got := NewMap(2).Owners("k"); len(got) != 0 {
		t.Fatalf("empty map Owners = %v, want none", got)
	}
}

// TestRingBalance: over 20 000 keys each of 5 members is the primary of
// within 2× of its fair share, and holds within 2× of its fair share of
// the replicas at replica factor 2.
func TestRingBalance(t *testing.T) {
	t.Parallel()
	const keys = 20000
	for _, replicas := range []int{1, 2} {
		m := memberMap(5, replicas)
		primaries, copies := map[string]int{}, map[string]int{}
		for i := 0; i < keys; i++ {
			owners := ownerIDs(m, fmt.Sprintf("key-%d", i))
			primaries[owners[0]]++
			for _, id := range owners {
				copies[id]++
			}
		}
		for _, mem := range m.Members() {
			for _, c := range []struct {
				what      string
				got, fair int
			}{{"primaries", primaries[mem.ID], keys / 5}, {"copies", copies[mem.ID], keys * replicas / 5}} {
				if c.got < c.fair/2 || c.got > c.fair*2 {
					t.Errorf("replicas %d: %s holds %d %s (fair share %d): placement too skewed", replicas, mem.ID, c.got, c.what, c.fair)
				}
			}
		}
	}
}

// TestRingStability: a join moves only the keys whose new owner set holds
// the joiner, and each of those keeps all but one of its old owners; read
// backwards, a leave moves only the leaver's keys. About replicas/4 of the
// keys move when a fourth member joins three.
func TestRingStability(t *testing.T) {
	t.Parallel()
	const keys = 10000
	for _, replicas := range []int{1, 2, 3} {
		before := memberMap(3, replicas)
		after := before.withNode("n003", "10.0.0.1:7003")
		moved := 0
		for i := 0; i < keys; i++ {
			key := fmt.Sprintf("key-%d", i)
			was, is := ownerIDs(before, key), ownerIDs(after, key)
			if slices.Equal(was, is) {
				continue
			}
			kept := slices.DeleteFunc(slices.Clone(is), func(id string) bool { return id == "n003" })
			if len(kept) == len(is) || slices.ContainsFunc(kept, func(id string) bool { return !slices.Contains(was, id) }) {
				t.Fatalf("replicas %d: key %q moved %v → %v, not to the joiner", replicas, key, was, is)
			}
			if slices.Contains(is, "n003") {
				moved++
			}
		}
		if want := keys * replicas / 4; moved > want*3/2 || moved < want/2 {
			t.Errorf("replicas %d: %d of %d keys changed owners on a join, want ≈ %d", replicas, moved, keys, want)
		}
	}
}

// TestOwnedByMatchesOwnerIDs: the filter a digest exchange and a stray
// drain build once per request accepts exactly the keys whose owners —
// Owners, the reference — include every given ID, on random keys at
// replicas 1–3, with more replicas than members, a node off the map and an
// empty map among the cases; and testing a key allocates nothing.
func TestOwnedByMatchesOwnerIDs(t *testing.T) {
	// Serial: testing.AllocsPerRun counts the allocations of every goroutine.
	r := rand.New(rand.NewSource(1))
	keys := make([]string, 2000)
	for i := range keys {
		keys[i] = fmt.Sprintf("key-%x", r.Uint64())
	}
	for _, size := range []struct{ members, replicas int }{{5, 1}, {5, 2}, {5, 3}, {2, 3}} {
		m := memberMap(size.members, size.replicas)
		for _, ids := range [][]string{{"n000"}, {"n001", "n003"}, {"n000", "n001"}, {"n002", "n002"}, {"n000", "gone"}} {
			owned := m.ownedBy(ids...)
			for _, key := range keys {
				owners := ownerIDs(m, key)
				want := !slices.ContainsFunc(ids, func(id string) bool { return !slices.Contains(owners, id) })
				if got := owned(key); got != want {
					t.Fatalf("%+v, ids %v, key %q with owners %v: ownedBy says %v", size, ids, key, owners, got)
				}
			}
		}
	}
	if NewMap(2).ownedBy("n000")("k") {
		t.Error("an empty map's filter accepts a key")
	}
	if raceEnabled {
		t.Skip("allocation counting is not meaningful under the race detector")
	}
	owned := memberMap(64, 3).ownedBy("n000", "n001")
	if allocs := testing.AllocsPerRun(5, func() {
		for _, key := range keys {
			owned(key)
		}
	}); allocs > 0 {
		t.Errorf("filtering %d keys allocates %.0f times; want none", len(keys), allocs)
	}
}

// TestPassPeersMatchesCoOwners: a timer pass goes to every other member,
// and a membership pass to exactly the members that co-own one of 4000
// random keys with the node — the brute-force reference, built on Owners —
// at replicas 1–3, and for a node off the map too; finding them at 512
// members allocates once, for the result.
func TestPassPeersMatchesCoOwners(t *testing.T) {
	// Serial: testing.AllocsPerRun counts the allocations of every goroutine.
	for _, replicas := range []int{1, 2, 3} {
		m := memberMap(12, replicas)
		coOwn := map[[2]string]bool{}
		for i := 0; i < 4000; i++ {
			owners := ownerIDs(m, fmt.Sprintf("key-%d", i))
			for _, a := range owners {
				for _, b := range owners {
					coOwn[[2]string{a, b}] = true
				}
			}
		}
		for _, me := range append(m.Members(), Member{ID: "gone"}) {
			self := me.ID
			others := slices.DeleteFunc(m.Members(), func(mem Member) bool { return mem.ID == self })
			if all := m.passPeers(self, false); !slices.Equal(all, others) {
				t.Errorf("replicas %d, %s: timer pass goes to %v, want every other member", replicas, self, all)
			}
			want := slices.DeleteFunc(slices.Clone(others), func(mem Member) bool { return !coOwn[[2]string{self, mem.ID}] })
			if got := m.passPeers(self, true); !slices.Equal(got, want) {
				t.Errorf("replicas %d, %s: membership pass goes to %v, want %v", replicas, self, got, want)
			}
		}
	}
	if raceEnabled {
		t.Skip("allocation counting is not meaningful under the race detector")
	}
	big := memberMap(512, 2)
	if allocs := testing.AllocsPerRun(5, func() { big.passPeers("n000", true) }); allocs > 1 {
		t.Errorf("a membership pass at 512 members allocates %.0f times finding its peers; want once", allocs)
	}
}

func TestMapEncodeDecodeRoundTrip(t *testing.T) {
	t.Parallel()
	m := NewMap(2, Member{"n1", "127.0.0.1:7700"}, Member{"n2", "127.0.0.1:7701"})
	m2 := m.withNode("n3", "127.0.0.1:7702").withoutNode("n2")
	dec, err := DecodeMap([]string{"v4", "2",
		"n1=127.0.0.1:7700=1", "n2=127.0.0.1:7701=2", "n3=127.0.0.1:7702=1"})
	if err != nil {
		t.Fatal(err)
	}
	if dec.Encode() != m2.Encode() {
		t.Errorf("round trip mismatch:\n got %q\nwant %q", dec.Encode(), m2.Encode())
	}
	if dec.Height() != 4 || dec.Replicas != 2 || dec.Len() != 2 || len(dec.Entries()) != 3 || dec.Has("n2") {
		t.Errorf("decoded map %s", dec.Encode())
	}
	// Owners agree between the original and the decoded map.
	for i := 0; i < 100; i++ {
		key := fmt.Sprintf("k%d", i)
		if a, b := m2.Owners(key), dec.Owners(key); !slices.Equal(a, b) {
			t.Fatalf("owners differ for %q: %v vs %v", key, a, b)
		}
	}
}

// TestDecodeMapErrors: DecodeMap refuses every malformed payload, and
// counters above maxCounter, the bound that keeps the height of
// maxWireMembers IDs from wrapping.
func TestDecodeMapErrors(t *testing.T) {
	t.Parallel()
	over := strconv.FormatUint(maxCounter+1, 10)
	for _, tokens := range [][]string{
		nil,
		{"v4"},
		{"1", "2", "n1=a:1"},                 // pre-epoch (v1) payload: rejected, not misparsed
		{"v3", "1", "1", "-", "2", "n1=a:1"}, // the epoch-ordered map it replaced
		{"v4", "0", "n1=a:1=1"},
		{"v4", "-3", "n1=a:1=1"},
		{"v4", "x", "n1=a:1=1"},
		{"v4", "2", "noequals"},
		{"v4", "2", "n1=a:1"}, // no counter
		{"v4", "2", "=addr=1"},
		{"v4", "2", "id==1"},
		{"v4", "2", "id=a=b=1"},
		{"v4", "2", "id=a=x"},
		{"v4", "2", "id=a=0"},
		{"v4", "2", "id=a=" + over},
		{"v4", "2", "id=a:1=1", "id=a:2=3"}, // duplicate ID
	} {
		if _, err := DecodeMap(tokens); err == nil {
			t.Errorf("DecodeMap(%v) succeeded, want error", tokens)
		}
	}
	toks := []string{"v4", "2"}
	for i := 0; i < maxWireMembers; i++ {
		toks = append(toks, fmt.Sprintf("n%d=a=%d", i, uint64(maxCounter)))
	}
	m, err := DecodeMap(toks)
	if err != nil {
		t.Fatalf("a map of %d IDs at maxCounter: %v", maxWireMembers, err)
	}
	if m.Height() != maxWireMembers*maxCounter || m.Height() < maxCounter {
		t.Errorf("height %d of %d IDs at %d wrapped", m.Height(), maxWireMembers, uint64(maxCounter))
	}
}
