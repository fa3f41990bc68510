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
	f.Add("v2 1 1 - 2 n1=127.0.0.1:7700 n2=127.0.0.1:7701")
	f.Add("v2 18446744073709551615 0 n9 1 x=y")
	f.Add("v2 3 7 n1 4096 a=b")
	f.Add("1 2 n1=a:1 n2=a:2") // pre-epoch v1 payload
	f.Add("")
	f.Add("v2 1 1 - 2 id=a=b")
	f.Add("v2 1 1 - 2 dup=a dup=b")
	f.Add("v2 -1 1 - 2 n1=a")
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
	a := NewMap(2, Member{"b", "a:2"}, Member{"a", "a:1"}, Member{"c", "a:3"})
	b := NewMap(2, Member{"c", "a:3"}, Member{"a", "a:1"}, Member{"b", "a:2"})
	if a.Encode() != b.Encode() {
		t.Errorf("member insertion order leaked into the encoding:\n%q\n%q", a.Encode(), b.Encode())
	}
	for i := 0; i < 50; i++ {
		key := fmt.Sprintf("k%d", i)
		ao, bo := a.ownerIDs(key), b.ownerIDs(key)
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
	allowed := map[string][]string{
		"Encode":    {"setmapCommand", "Node.handleMap", "Node.swapMap"},
		"DecodeMap": {"Node.handleSetMap", "Node.peerMap", "Node.persistedMap", "ClusterClient.fetchMapFrom"},
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

// TestOwnedByMatchesOwnerIDs: the arc-table filter a digest exchange
// and a stray drain build once per request accepts exactly the keys whose
// owner list — ownerIDs, one ring walk per key, the reference — holds
// every given ID, on random keys at replicas 1–3, with a node off the map
// and an empty map among the cases; and testing a key allocates nothing.
func TestOwnedByMatchesOwnerIDs(t *testing.T) {
	r := rand.New(rand.NewSource(1))
	keys := make([]string, 2000)
	for i := range keys {
		keys[i] = fmt.Sprintf("key-%x", r.Uint64())
	}
	for _, replicas := range []int{1, 2, 3} {
		m := memberMap(5, replicas)
		for _, ids := range [][]string{{"n000"}, {"n001", "n003"}, {"n002", "n002"}, {"n000", "gone"}} {
			owned := m.ownedBy(ids...)
			for _, key := range keys {
				owners := m.ownerIDs(key)
				want := !slices.ContainsFunc(ids, func(id string) bool { return !slices.Contains(owners, id) })
				if got := owned(key); got != want {
					t.Fatalf("replicas %d, ids %v, key %q with owners %v: ownedBy says %v", replicas, ids, key, owners, got)
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

// TestPassPeersOneRingWalk: a membership pass goes to exactly the members
// that share a vnode's owner set with the node — the pairwise check, one
// ring walk per member, is the reference — and finding them at 512
// members allocates O(members), far under the O(members·ring) of one
// walk per member.
func TestPassPeersOneRingWalk(t *testing.T) {
	for _, replicas := range []int{1, 2, 3} {
		m := memberMap(12, replicas)
		for _, me := range append(m.Members(), Member{ID: "gone"}) {
			self := me.ID
			others := slices.DeleteFunc(m.Members(), func(mem Member) bool { return mem.ID == self })
			if all := m.passPeers(self, false); !slices.Equal(all, others) {
				t.Errorf("replicas %d, %s: timer pass goes to %v, want every other member", replicas, self, all)
			}
			var want []Member
			for _, mem := range others {
				for i := range m.ring.hashes {
					if ids := m.ring.ownersAt(nil, i, replicas); slices.Contains(ids, self) && slices.Contains(ids, mem.ID) {
						want = append(want, mem)
						break
					}
				}
			}
			if got := m.passPeers(self, true); !slices.Equal(got, want) {
				t.Errorf("replicas %d, %s: membership pass goes to %v, want %v", replicas, self, got, want)
			}
		}
	}
	if raceEnabled {
		t.Skip("allocation counting is not meaningful under the race detector")
	}
	big := memberMap(512, 2)
	allocs := testing.AllocsPerRun(5, func() { big.passPeers("n000", true) })
	if allocs > 512 {
		t.Errorf("a membership pass at 512 members allocates %.0f times finding its peers; want O(members), the ring has %d vnodes", allocs, len(big.ring.hashes))
	}
}
