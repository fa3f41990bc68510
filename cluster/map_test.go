package cluster

import (
	"fmt"
	"go/ast"
	"go/parser"
	"go/token"
	"io/fs"
	"math/rand"
	"slices"
	"strings"
	"testing"
)

// TestMapOrdering pins the (Epoch, Version, Coordinator) total order
// that SETMAP conflict resolution rests on: every pair of distinct
// maps has exactly one winner, and a map never supersedes itself.
func TestMapOrdering(t *testing.T) {
	t.Parallel()
	mk := func(epoch, version uint64, coord string) *Map {
		return build(epoch, version, coord, 2, map[string]string{"n1": "a:1"})
	}
	cases := []struct {
		name string
		a, b *Map
		want bool // a.Newer(b)
	}{
		{"higher epoch wins", mk(3, 1, "n1"), mk(2, 9, "n9"), true},
		{"lower epoch loses", mk(2, 9, "n9"), mk(3, 1, "n1"), false},
		{"same epoch, higher version wins", mk(2, 5, "n1"), mk(2, 4, "n9"), true},
		{"same epoch+version, coordinator breaks tie", mk(2, 4, "n9"), mk(2, 4, "n1"), true},
		{"identical triple is not newer", mk(2, 4, "n1"), mk(2, 4, "n1"), false},
		{"anything beats nil", mk(0, 0, ""), nil, true},
	}
	for _, c := range cases {
		if got := c.a.Newer(c.b); got != c.want {
			t.Errorf("%s: Newer = %v, want %v", c.name, got, c.want)
		}
		// Antisymmetry on distinct maps: exactly one direction wins.
		if c.b != nil && c.a.Newer(c.b) && c.b.Newer(c.a) {
			t.Errorf("%s: both directions claim to be newer", c.name)
		}
	}
}

// TestMapMutationsAdvanceOrder: withNode/withoutNode at a claimed epoch
// always supersede their parent, and encode/decode preserves the
// ordering triple exactly.
func TestMapMutationsAdvanceOrder(t *testing.T) {
	t.Parallel()
	m := NewMap(2, Member{"n1", "a:1"}, Member{"n2", "a:2"})
	added := m.withNode("n3", "a:3", m.Epoch+1, "n2")
	if !added.Newer(m) || added.Epoch != m.Epoch+1 || added.Version != m.Version+1 || added.Coordinator != "n2" {
		t.Fatalf("withNode did not advance the order: %q → %q", m.Encode(), added.Encode())
	}
	removed := added.withoutNode("n1", added.Epoch+1, "n3")
	if !removed.Newer(added) || removed.Has("n1") || removed.Len() != 2 {
		t.Fatalf("withoutNode did not advance the order: %q → %q", added.Encode(), removed.Encode())
	}
	dec, err := DecodeMap(strings.Fields(removed.Encode()))
	if err != nil {
		t.Fatal(err)
	}
	if dec.Epoch != removed.Epoch || dec.Version != removed.Version || dec.Coordinator != removed.Coordinator {
		t.Errorf("round trip lost the ordering triple: %q vs %q", dec.Encode(), removed.Encode())
	}
	if dec.Newer(removed) || removed.Newer(dec) {
		t.Error("round-tripped map compares unequal to its source")
	}
}

// FuzzMapDecode: a corrupt or adversarial SETMAP payload must never
// panic a node, and anything DecodeMap accepts must re-encode to a
// byte-stable, re-decodable form (otherwise two nodes could disagree
// about one map).
func FuzzMapDecode(f *testing.F) {
	f.Add("v3 1 1 - 2 n1=127.0.0.1:7700 n2=127.0.0.1:7701")
	f.Add("v3 18446744073709551615 0 n9 1 x=y")
	f.Add("v3 3 7 n1 4096 a=b")
	f.Add("1 2 n1=a:1 n2=a:2") // pre-epoch v1 payload
	f.Add("")
	f.Add("v3 1 1 - 2 id=a=b")
	f.Add("v3 1 1 - 2 dup=a dup=b")
	f.Add("v3 -1 1 - 2 n1=a")
	f.Fuzz(func(t *testing.T, payload string) {
		tokens := strings.Fields(payload)
		m, err := DecodeMap(tokens)
		if err != nil {
			return // rejected cleanly — that's fine
		}
		if m.Len() == 0 || m.Replicas < 1 {
			t.Fatalf("DecodeMap(%q) accepted a degenerate map: %+v", payload, m)
		}
		// Whatever was accepted must route without panicking.
		if owners := m.Owners("some-key"); len(owners) == 0 {
			t.Fatalf("accepted map owns nothing: %q", payload)
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
// — gossip digests, EPOCH votes, DSUM/DKEYS — carries the triple. The
// package's non-test files are parsed, and every use of a method named
// Encode called with no arguments ((*Map).Encode; the base64 encoders take
// two) and of DecodeMap is attributed to its enclosing function.
func TestMapsTravelOnlyAsSetmapOrMap(t *testing.T) {
	t.Parallel()
	allowed := map[string][]string{
		"Encode":    {"setmapCommand", "Node.handleMap", "Node.swapMap"},
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
		after := before.withNode("n003", "10.0.0.1:7003", 2, "n000")
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
	m2 := m.withNode("n3", "127.0.0.1:7702", 2, "n1")
	dec, err := DecodeMap([]string{"v3", "2", "2", "n1", "2",
		"n1=127.0.0.1:7700", "n2=127.0.0.1:7701", "n3=127.0.0.1:7702"})
	if err != nil {
		t.Fatal(err)
	}
	if dec.Encode() != m2.Encode() {
		t.Errorf("round trip mismatch:\n got %q\nwant %q", dec.Encode(), m2.Encode())
	}
	if dec.Epoch != 2 || dec.Version != 2 || dec.Coordinator != "n1" || dec.Replicas != 2 || dec.Len() != 3 {
		t.Errorf("decoded map %+v", dec)
	}
	// Owners agree between the original and the decoded map.
	for i := 0; i < 100; i++ {
		key := fmt.Sprintf("k%d", i)
		a, b := m2.Owners(key), dec.Owners(key)
		if len(a) != len(b) {
			t.Fatalf("owners differ for %q: %v vs %v", key, a, b)
		}
		for j := range a {
			if a[j] != b[j] {
				t.Fatalf("owners differ for %q: %v vs %v", key, a, b)
			}
		}
	}
}

func TestDecodeMapErrors(t *testing.T) {
	t.Parallel()
	for _, tokens := range [][]string{
		nil,
		{"v3"},
		{"v3", "1", "1", "-"},
		{"1", "2", "n1=a:1"},                 // pre-epoch (v1) payload: rejected, not misparsed
		{"v1", "1", "1", "-", "2", "n1=a:1"}, // unknown tag
		{"v2", "1", "1", "-", "2", "n1=a:1"}, // ring-placed map: its owners differ from this map's
		{"v3", "x", "1", "-", "2", "n1=a:1"},
		{"v3", "1", "x", "-", "2", "n1=a:1"},
		{"v3", "1", "1", "co=ord", "2", "n1=a:1"},
		{"v3", "1", "1", "-", "0", "n1=a:1"},
		{"v3", "1", "1", "-", "-3", "n1=a:1"},
		{"v3", "99", "2", "-", "2"}, // no members: installing would orphan every key
		{"v3", "1", "2", "-", "2", "noequals"},
		{"v3", "1", "2", "-", "2", "=addr"},
		{"v3", "1", "2", "-", "2", "id="},
		{"v3", "1", "2", "-", "2", "id=a=b"},
		{"v3", "1", "2", "-", "2", "id=a:1", "id=a:2"}, // duplicate member
	} {
		if _, err := DecodeMap(tokens); err == nil {
			t.Errorf("DecodeMap(%v) succeeded, want error", tokens)
		}
	}
}
