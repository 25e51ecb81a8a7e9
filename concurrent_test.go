package updatec

import (
	"fmt"
	"sync"
	"testing"
)

// Concurrent writers through the public handles, on the one write path.
// Each suite runs with and without WithGC: compaction is the setting in
// which the order a replica sends its stamps in matters (see
// sendorder_test.go).

// gcOptions is the GC dimension the suites below run over.
var gcOptions = []struct {
	name string
	opts []Option
}{{"gc=false", nil}, {"gc=true", []Option{WithGC()}}}

// TestLockFreeAllObjectKindsConverge drives every generic object kind
// with two concurrent writers on every handle and requires convergence
// after Settle, with and without GC — the public-API analogue of the core
// package's concurrent suites, run under -race in CI.
func TestLockFreeAllObjectKindsConverge(t *testing.T) {
	const n, perHandle, perWriter = 3, 2, 40
	// Each case builds its own cluster so the handle types stay concrete;
	// the workload shape is shared: every replica's handle is driven by
	// perHandle goroutines at once, then the cluster settles.
	drive := func(t *testing.T, cluster interface {
		Settle()
		Converged() bool
		Close()
	}, work func(i, k int)) {
		t.Helper()
		defer cluster.Close()
		var wg sync.WaitGroup
		for i := 0; i < n; i++ {
			for w := 0; w < perHandle; w++ {
				wg.Add(1)
				go func(i int) {
					defer wg.Done()
					for k := 0; k < perWriter; k++ {
						work(i, k)
					}
				}(i)
			}
		}
		wg.Wait()
		cluster.Settle()
		if !cluster.Converged() {
			t.Fatal("cluster did not converge")
		}
	}
	// must unwraps New for the cases below.
	must := func(t *testing.T, err error) {
		t.Helper()
		if err != nil {
			t.Fatal(err)
		}
	}

	for _, tc := range []struct {
		name string
		run  func(t *testing.T, opts []Option)
	}{
		{"set", func(t *testing.T, opts []Option) {
			cluster, hs, err := New(n, SetObject(), opts...)
			must(t, err)
			drive(t, cluster, func(i, k int) {
				hs[i].Insert(fmt.Sprint(k % 7))
				if k%3 == 0 {
					hs[i].Delete(fmt.Sprint((k + i) % 7))
				}
			})
		}},
		{"counter", func(t *testing.T, opts []Option) {
			cluster, hs, err := New(n, CounterObject(), opts...)
			must(t, err)
			drive(t, cluster, func(i, k int) { hs[i].Add(int64(k%5 - 2)) })
		}},
		{"register", func(t *testing.T, opts []Option) {
			cluster, hs, err := New(n, RegisterObject("r0"), opts...)
			must(t, err)
			drive(t, cluster, func(i, k int) { hs[i].Write(fmt.Sprintf("p%d-%d", i, k)) })
		}},
		{"textlog", func(t *testing.T, opts []Option) {
			cluster, hs, err := New(n, TextLogObject(), opts...)
			must(t, err)
			drive(t, cluster, func(i, k int) { hs[i].Append(fmt.Sprintf("p%d line %d", i, k)) })
		}},
		{"graph", func(t *testing.T, opts []Option) {
			cluster, hs, err := New(n, GraphObject(), opts...)
			must(t, err)
			drive(t, cluster, func(i, k int) {
				u, v := fmt.Sprint(k%4), fmt.Sprint((k+1)%4)
				switch k % 4 {
				case 0:
					hs[i].AddVertex(u)
				case 1:
					hs[i].AddEdge(u, v)
				case 2:
					hs[i].RemoveEdge(u, v)
				default:
					hs[i].RemoveVertex(v)
				}
			})
		}},
		{"sequence", func(t *testing.T, opts []Option) {
			cluster, hs, err := New(n, SequenceObject(), opts...)
			must(t, err)
			drive(t, cluster, func(i, k int) {
				if k%4 == 3 {
					hs[i].DeleteAt(k % 3)
				} else {
					hs[i].InsertAt(k%3, fmt.Sprintf("p%d", i))
				}
			})
		}},
		{"kv", func(t *testing.T, opts []Option) {
			cluster, hs, err := New(n, KVObject(), opts...)
			must(t, err)
			drive(t, cluster, func(i, k int) { hs[i].Put(fmt.Sprint(k%9), fmt.Sprintf("p%d-%d", i, k)) })
		}},
		{"countermap", func(t *testing.T, opts []Option) {
			cluster, hs, err := New(n, CounterMapObject(), opts...)
			must(t, err)
			drive(t, cluster, func(i, k int) { hs[i].Add(fmt.Sprint(k%9), int64(i+1)) })
		}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			for _, g := range gcOptions {
				t.Run(g.name, func(t *testing.T) { tc.run(t, g.opts) })
			}
		})
	}
}

// TestLockFreeCounterSumOracle is the public-API exact oracle: with two
// concurrent writers on every replica's handle the counter must converge
// to the known sum, with and without GC — nothing issued may be lost,
// duplicated, or misfolded.
func TestLockFreeCounterSumOracle(t *testing.T) {
	const n, perHandle, perWriter = 3, 2, 300
	for _, g := range gcOptions {
		t.Run(g.name, func(t *testing.T) {
			cluster, hs, err := New(n, CounterObject(), g.opts...)
			if err != nil {
				t.Fatal(err)
			}
			defer cluster.Close()
			var wg sync.WaitGroup
			for i := 0; i < n; i++ {
				for w := 0; w < perHandle; w++ {
					wg.Add(1)
					go func(i int) {
						defer wg.Done()
						for k := 0; k < perWriter; k++ {
							hs[i].Add(int64(i + 1))
						}
					}(i)
				}
			}
			wg.Wait()
			cluster.Settle()
			if !cluster.Converged() {
				t.Fatal("cluster did not converge")
			}
			if got, want := hs[0].Value(), int64(perHandle*perWriter*(1+2+3)); got != want {
				t.Fatalf("sum %d, want %d", got, want)
			}
		})
	}
}

// TestLockFreeShardedResize drives a sharded cluster with concurrent
// writers while the shard count changes mid-stream, with and without GC:
// every update a writer has issued is in its shard's log when the resize
// moves it, so the final per-key sums stay exact.
func TestLockFreeShardedResize(t *testing.T) {
	const n, perHandle, keys = 3, 200, 8
	for _, g := range gcOptions {
		t.Run(g.name, func(t *testing.T) {
			cluster, hs, err := New(n, CounterMapObject(), append([]Option{WithShards(2)}, g.opts...)...)
			if err != nil {
				t.Fatal(err)
			}
			defer cluster.Close()
			var wg sync.WaitGroup
			for i := 0; i < n; i++ {
				wg.Add(1)
				go func(i int) {
					defer wg.Done()
					for k := 0; k < perHandle; k++ {
						hs[i].Add(fmt.Sprint(k%keys), 1)
					}
				}(i)
			}
			// Resize concurrently with the writers, both directions.
			if err := cluster.Resize(4); err != nil {
				t.Fatal(err)
			}
			if err := cluster.Resize(3); err != nil {
				t.Fatal(err)
			}
			wg.Wait()
			cluster.Settle()
			if !cluster.Converged() {
				t.Fatal("sharded cluster did not converge after resizes")
			}
			var total int64
			for k := 0; k < keys; k++ {
				total += hs[0].Value(fmt.Sprint(k))
			}
			if want := int64(n * perHandle); total != want {
				t.Fatalf("sum over keys %d, want %d", total, want)
			}
		})
	}
}

// TestLockFreeSessionGuarantees checks that sessions (which use the
// timestamp-returning update path) keep their guarantees with and
// without GC: a session write is immediately readable through the
// session, and after failing over to a settled replica the session's
// reads still cover everything it wrote.
func TestLockFreeSessionGuarantees(t *testing.T) {
	for _, g := range gcOptions {
		t.Run(g.name, func(t *testing.T) {
			cluster, _, err := New(3, CounterObject(), g.opts...)
			if err != nil {
				t.Fatal(err)
			}
			defer cluster.Close()
			sess, err := cluster.Session(0)
			if err != nil {
				t.Fatal(err)
			}
			for i := 1; i <= 10; i++ {
				sess.Handle().Inc()
				var got int64
				if !sess.TryQuery(func(c *Counter) { got = c.Value() }) {
					t.Fatalf("read-your-writes: session read %d not served on the issuing replica", i)
				}
				if got < int64(i) {
					t.Fatalf("session read %d after %d session writes", got, i)
				}
			}
			cluster.Settle()
			sess.Switch(2)
			if !sess.Covered() {
				t.Fatal("settled replica does not cover the session")
			}
			var got int64
			if !sess.TryQuery(func(c *Counter) { got = c.Value() }) {
				t.Fatal("session read not served after failover to a settled replica")
			}
			if got != 10 {
				t.Fatalf("post-failover session read %d, want 10", got)
			}
		})
	}
}
