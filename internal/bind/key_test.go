package bind

import (
	"fmt"
	"testing"

	"vliwbind/internal/problem"
)

// bindingKey is both the B-ITER visited-set key and the engine's batch
// dedup and lookup key, so it must be injective over real bindings
// (cluster indices -1..numClusters-1) and cheap.

func TestBindingKeyInjective(t *testing.T) {
	// All 3-element bindings over clusters {-1, 0, 1, 2} must map to
	// distinct keys.
	seen := make(map[string][]int)
	clusters := []int{-1, 0, 1, 2}
	for _, a := range clusters {
		for _, b := range clusters {
			for _, c := range clusters {
				bn := []int{a, b, c}
				k := bindingKey(bn)
				if prev, ok := seen[k]; ok {
					t.Fatalf("collision: %v and %v both map to %q", prev, bn, k)
				}
				seen[k] = append([]int(nil), bn...)
			}
		}
	}
}

// TestBindingKeyInjectiveOnFullDomain pins the byte encoding against
// wrap-around at the domain boundary: every cluster index the system can
// produce — -1 (unbound) through problem.MaxClusters-1 — must map to a
// distinct byte. The first index past the domain, problem.MaxClusters,
// is exactly the wrap onto the unbound marker; the test asserts the wrap
// is where the gate says it is, so the gate and the encoding cannot
// drift apart silently. Without the problem.New gate, a 256-cluster
// machine would alias cluster 255 with "unbound" in both the engine's
// lookup and B-ITER's plateau detection.
func TestBindingKeyInjectiveOnFullDomain(t *testing.T) {
	seen := make(map[string]int)
	for c := -1; c < problem.MaxClusters; c++ {
		k := bindingKey([]int{c})
		if prev, dup := seen[k]; dup {
			t.Fatalf("clusters %d and %d share key byte %q", prev, c, k)
		}
		seen[k] = c
	}
	if bindingKey([]int{problem.MaxClusters}) != bindingKey([]int{-1}) {
		t.Errorf("cluster %d no longer wraps onto the unbound marker; the key encoding widened — revisit problem.MaxClusters", problem.MaxClusters)
	}
	if keyHex([]int{problem.MaxClusters - 1}) == keyHex([]int{-1}) {
		t.Error("keyHex collides inside the supported domain")
	}
}

func TestBindingKeyDeterministic(t *testing.T) {
	bn := []int{0, 1, -1, 2, 1, 0}
	if bindingKey(bn) != bindingKey(append([]int(nil), bn...)) {
		t.Error("equal bindings produced different keys")
	}
	if len(bindingKey(bn)) != len(bn) {
		t.Errorf("key is %d bytes for %d ops; want one byte per op",
			len(bindingKey(bn)), len(bn))
	}
}

// BenchmarkBindingKey measures the hot-path key construction at the
// paper's kernel sizes (EWF is 34 ops, the unrolled DCTs ~96, the move
// nodes of a bound graph push past 100).
func BenchmarkBindingKey(b *testing.B) {
	for _, n := range []int{32, 96, 160} {
		bn := make([]int, n)
		for i := range bn {
			bn[i] = i % 4
		}
		b.Run(fmt.Sprintf("ops=%d", n), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if bindingKey(bn) == "" {
					b.Fatal("empty key")
				}
			}
		})
	}
}
