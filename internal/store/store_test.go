package store

import (
	"crypto/sha256"
	"fmt"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"sync"
	"testing"

	"vliwbind/internal/leakcheck"
	"vliwbind/internal/machine"
)

func testKey(s string) Key { return Key(sha256.Sum256([]byte(s))) }

func mustMachine(t *testing.T, spec string) *machine.Datapath {
	t.Helper()
	dp, err := machine.ParseSpec(spec)
	if err != nil {
		t.Fatal(err)
	}
	return dp
}

func bindEntry(k string, l int) Entry {
	return Entry{Key: testKey(k), Kind: KindIter, Binding: []int{0, 1, 0}, L: l, M: 2}
}

func TestNilStoreIsInert(t *testing.T) {
	var s *Store
	if got := s.Get(testKey("a")); got != nil {
		t.Errorf("nil store Get = %+v, want nil", got)
	}
	if err := s.Put(bindEntry("a", 1)); err != nil {
		t.Errorf("nil store Put: %v", err)
	}
	if had, err := s.Evict(testKey("a")); had || err != nil {
		t.Errorf("nil store Evict = (%v, %v)", had, err)
	}
	if err := s.Close(); err != nil {
		t.Errorf("nil store Close: %v", err)
	}
	if s.Len() != 0 || s.OpenStats() != (OpenStats{}) {
		t.Error("nil store reports residency")
	}
}

func TestMemoryPutGetReplace(t *testing.T) {
	s := NewMemory(0)
	if got := s.Get(testKey("a")); got != nil {
		t.Fatalf("empty store Get = %+v", got)
	}
	e := bindEntry("a", 10)
	s.Put(e)
	got := s.Get(testKey("a"))
	if got == nil || !reflect.DeepEqual(*got, e) {
		t.Fatalf("Get = %+v, want %+v", got, e)
	}
	// Replace under the same key: last write wins.
	e2 := bindEntry("a", 7)
	s.Put(e2)
	if got := s.Get(testKey("a")); got == nil || got.L != 7 {
		t.Fatalf("after replace Get.L = %+v, want 7", got)
	}
	if s.Len() != 1 {
		t.Fatalf("Len = %d, want 1", s.Len())
	}
	if had, _ := s.Evict(testKey("a")); !had {
		t.Fatal("Evict of resident entry reported absent")
	}
	if s.Get(testKey("a")) != nil || s.Len() != 0 {
		t.Fatal("entry survived Evict")
	}
}

// TestLRUEviction fills a capacity-2 store with three entries and checks
// that the least recently *used* — not least recently inserted — entry
// is the one dropped.
func TestLRUEviction(t *testing.T) {
	s := NewMemory(2)
	s.Put(bindEntry("a", 1))
	s.Put(bindEntry("b", 2))
	s.Get(testKey("a")) // refresh a; b is now least recently used
	s.Put(bindEntry("c", 3))
	if s.Get(testKey("b")) != nil {
		t.Error("least recently used entry b survived past capacity")
	}
	if s.Get(testKey("a")) == nil || s.Get(testKey("c")) == nil {
		t.Error("recently used entries evicted")
	}
}

func TestJournalRoundTrip(t *testing.T) {
	dir := t.TempDir()
	s, err := Open(dir, 0)
	if err != nil {
		t.Fatal(err)
	}
	eb := bindEntry("bind", 12)
	em := Entry{Key: testKey("mod"), Kind: KindModulo, II: 3,
		Start: []int{0, 1, 4}, Cluster: []int{0, 1, 1}, Moves: [][3]int{{0, 1, 2}}}
	if err := s.Put(eb); err != nil {
		t.Fatal(err)
	}
	if err := s.Put(em); err != nil {
		t.Fatal(err)
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}

	r, err := Open(dir, 0)
	if err != nil {
		t.Fatal(err)
	}
	defer r.Close()
	if st := r.OpenStats(); st.Replayed != 2 || st.Skipped != 0 || st.Tombstoned != 0 {
		t.Errorf("OpenStats = %+v, want 2 replayed", st)
	}
	if got := r.Get(eb.Key); got == nil || !reflect.DeepEqual(*got, eb) {
		t.Errorf("bind entry did not round-trip: %+v", got)
	}
	if got := r.Get(em.Key); got == nil || !reflect.DeepEqual(*got, em) {
		t.Errorf("modulo entry did not round-trip: %+v", got)
	}
}

// TestJournalCrashSafety replays a journal containing every kind of
// damage a crash or a bit flip can leave behind: each bad line must cost
// exactly itself, never the store.
func TestJournalCrashSafety(t *testing.T) {
	dir := t.TempDir()
	good := bindEntry("good", 9)
	dup1 := bindEntry("dup", 1)
	dup2 := bindEntry("dup", 2)
	gone := bindEntry("gone", 3)
	lines := []string{
		string(encodeRecord(&good, false)),
		"this is not json at all",
		string(encodeRecord(&dup1, false))[:20],                             // torn mid-record write
		`{"v":2,"key":"` + testKey("v2").String() + `","kind":"bind:iter"}`, // future version
		`{"v":1,"key":"zz-not-hex","kind":"bind:iter"}`,                     // malformed key
		`{"v":1,"key":"` + testKey("nokind").String() + `"}`,                // payload with no kind
		string(encodeRecord(&dup1, false)),
		string(encodeRecord(&dup2, false)), // duplicate key: last write wins
		string(encodeRecord(&gone, false)),
		string(encodeRecord(&Entry{Key: gone.Key}, true)), // tombstone
	}
	path := filepath.Join(dir, journalName)
	if err := os.WriteFile(path, []byte(strings.Join(lines, "\n")+"\n"), 0o644); err != nil {
		t.Fatal(err)
	}

	s, err := Open(dir, 0)
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	st := s.OpenStats()
	if st.Replayed != 4 || st.Skipped != 5 || st.Tombstoned != 1 {
		t.Errorf("OpenStats = %+v, want {Replayed:4 Skipped:5 Tombstoned:1}", st)
	}
	if got := s.Get(good.Key); got == nil || got.L != 9 {
		t.Errorf("good entry lost to neighbouring corruption: %+v", got)
	}
	if got := s.Get(dup1.Key); got == nil || got.L != 2 {
		t.Errorf("duplicate key not last-write-wins: %+v", got)
	}
	if s.Get(gone.Key) != nil {
		t.Error("tombstoned entry served")
	}
	if s.Len() != 2 {
		t.Errorf("Len = %d, want 2", s.Len())
	}

	// The reopened store must still be appendable after the damage.
	fresh := bindEntry("fresh", 4)
	if err := s.Put(fresh); err != nil {
		t.Fatal(err)
	}
	s.Close()
	r, err := Open(dir, 0)
	if err != nil {
		t.Fatal(err)
	}
	defer r.Close()
	if got := r.Get(fresh.Key); got == nil || got.L != 4 {
		t.Errorf("append after corrupt replay did not survive reopen: %+v", got)
	}
}

// TestJournalOversizedTail: a tail line beyond the scanner's 1MB limit
// (e.g. garbage appended by another process) stops replay with one
// skip, keeping everything that replayed cleanly.
func TestJournalOversizedTail(t *testing.T) {
	dir := t.TempDir()
	good := bindEntry("good", 5)
	var sb strings.Builder
	sb.Write(encodeRecord(&good, false))
	sb.WriteByte('\n')
	sb.WriteString(strings.Repeat("x", 2<<20)) // no trailing newline: torn tail
	path := filepath.Join(dir, journalName)
	if err := os.WriteFile(path, []byte(sb.String()), 0o644); err != nil {
		t.Fatal(err)
	}
	s, err := Open(dir, 0)
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	st := s.OpenStats()
	if st.Replayed != 1 || st.Skipped == 0 {
		t.Errorf("OpenStats = %+v, want 1 replayed and the tail skipped", st)
	}
	if s.Get(good.Key) == nil {
		t.Error("clean prefix lost to the oversized tail")
	}
}

// TestEvictTombstonePersists: an eviction is journaled, so a poisoned
// entry stays gone across a reopen even though its Put record is still
// in the journal.
func TestEvictTombstonePersists(t *testing.T) {
	dir := t.TempDir()
	s, err := Open(dir, 0)
	if err != nil {
		t.Fatal(err)
	}
	poison := bindEntry("poison", 1)
	keep := bindEntry("keep", 2)
	s.Put(poison)
	s.Put(keep)
	if had, err := s.Evict(poison.Key); !had || err != nil {
		t.Fatalf("Evict = (%v, %v)", had, err)
	}
	s.Close()

	r, err := Open(dir, 0)
	if err != nil {
		t.Fatal(err)
	}
	defer r.Close()
	if r.Get(poison.Key) != nil {
		t.Error("evicted entry resurrected by reopen")
	}
	if r.Get(keep.Key) == nil {
		t.Error("unrelated entry lost")
	}
	if st := r.OpenStats(); st.Tombstoned != 1 {
		t.Errorf("OpenStats = %+v, want 1 tombstone", st)
	}
}

// TestConcurrentAccess hammers one journal-backed store from many
// goroutines mixing Put, Get, and Evict; run under -race this is the
// concurrency-safety proof. leakcheck guards the no-goroutine contract:
// the store does all its work on the caller's goroutine.
func TestConcurrentAccess(t *testing.T) {
	leakcheck.Check(t)
	s, err := Open(t.TempDir(), 64)
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	const workers, rounds = 8, 200
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < rounds; i++ {
				k := fmt.Sprintf("k%d", i%50)
				switch i % 3 {
				case 0:
					if err := s.Put(bindEntry(k, w*rounds+i)); err != nil {
						t.Errorf("Put: %v", err)
						return
					}
				case 1:
					if e := s.Get(testKey(k)); e != nil && e.Kind != KindIter {
						t.Errorf("Get returned mangled entry %+v", e)
						return
					}
				default:
					if _, err := s.Evict(testKey(k)); err != nil {
						t.Errorf("Evict: %v", err)
						return
					}
				}
			}
		}(w)
	}
	wg.Wait()
	if s.Len() > 64 {
		t.Errorf("Len = %d exceeds capacity 64", s.Len())
	}
}

// TestGetEntryNeverRewritten: an entry Get returned is never written
// again, so a caller may read it while another goroutine replaces the
// same key. Under -race (make race) a Put that overwrote the resident
// entry in place would be reported here.
func TestGetEntryNeverRewritten(t *testing.T) {
	leakcheck.Check(t)
	s := NewMemory(0)
	s.Put(bindEntry("a", 0))
	var wg sync.WaitGroup
	wg.Add(2)
	go func() {
		defer wg.Done()
		for i := 1; i <= 500; i++ {
			s.Put(bindEntry("a", i))
		}
	}()
	go func() {
		defer wg.Done()
		for i := 0; i < 500; i++ {
			if e := s.Get(testKey("a")); e == nil || e.Kind != KindIter || e.L < 0 || len(e.Binding) != 3 {
				t.Errorf("Get = %+v, want a resident bind:iter entry", e)
				return
			}
		}
	}()
	wg.Wait()
}

// TestResultKeySeparatesRequests pins the key derivation: kind, machine,
// and option bytes each split the key space on their own.
func TestResultKeySeparatesRequests(t *testing.T) {
	g := buildButterfly()
	c, err := Canonicalize(g)
	if err != nil {
		t.Fatal(err)
	}
	dp2 := mustMachine(t, "[1,1|1,1]")
	dp3 := mustMachine(t, "[1,1|1,1|1,1]")
	base := ResultKey(KindIter, c, dp2, []byte("opts"))
	if k := ResultKey(KindInit, c, dp2, []byte("opts")); k == base {
		t.Error("kind does not separate keys")
	}
	if k := ResultKey(KindIter, c, dp3, []byte("opts")); k == base {
		t.Error("machine does not separate keys")
	}
	if k := ResultKey(KindIter, c, dp2, []byte("other")); k == base {
		t.Error("extra bytes do not separate keys")
	}
	if k := ResultKey(KindIter, c, dp2, []byte("opts")); k != base {
		t.Error("identical request derives a different key")
	}
}

// TestMachineFingerprintSensitivity: anything about a datapath that can
// change a binding result — structure, topology, capacity, timing — must
// change the fingerprint.
func TestMachineFingerprintSensitivity(t *testing.T) {
	base := MachineFingerprint(mustMachine(t, "[1,1|1,1]"))
	for _, spec := range []string{
		"[2,1|1,1]",        // different cluster structure
		"[1,1|1,1]@p2p",    // different topology
		"[1,1|1,1]@ring:2", // different link capacity
	} {
		if fp := MachineFingerprint(mustMachine(t, spec)); fp == base {
			t.Errorf("fingerprint of %s collides with [1,1|1,1]", spec)
		}
	}
	slow, err := machine.Parse("[1,1|1,1]", machine.Config{Mul: machine.ResourceSpec{Lat: 2, DII: 1}})
	if err != nil {
		t.Fatal(err)
	}
	if fp := MachineFingerprint(slow); fp == base {
		t.Error("fingerprint ignores FU timing")
	}
	if fp := MachineFingerprint(mustMachine(t, "[1,1|1,1]")); fp != base {
		t.Error("fingerprint of identical machines differs")
	}
}

func TestKeyStringRoundTrip(t *testing.T) {
	k := testKey("round-trip")
	got, err := ParseKey(k.String())
	if err != nil {
		t.Fatal(err)
	}
	if got != k {
		t.Errorf("ParseKey(String) = %v, want %v", got, k)
	}
	if _, err := ParseKey("not-hex"); err == nil {
		t.Error("ParseKey accepted non-hex input")
	}
	if _, err := ParseKey("abcd"); err == nil {
		t.Error("ParseKey accepted a short key")
	}
}
