package core

import (
	"fmt"
	"sync"
	"testing"

	"updatec/internal/spec"
	"updatec/internal/transport"
)

// orderNet checks, at the transport's door, the property stability-based
// compaction rests on (Replica.tailLocked): each origin hands the network
// its updates in stamp order, per shard channel. It reads the stamps of
// every broadcast step, in order, and records any origin whose stamps go
// down.
type orderNet struct {
	transport.ResizableNetwork
	mu   sync.Mutex
	last map[[2]int]uint64 // (origin, shard) → highest clock sent so far
	errs []string
}

func newOrderNet(net transport.ResizableNetwork) *orderNet {
	return &orderNet{ResizableNetwork: net, last: map[[2]int]uint64{}}
}

func (n *orderNet) Broadcast(from int, p []byte) {
	n.check(from, 0, p)
	n.ResizableNetwork.Broadcast(from, p)
}

func (n *orderNet) BroadcastShardEpoch(from, shard, epoch int, p []byte) {
	n.check(from, shard, p)
	n.ResizableNetwork.BroadcastShardEpoch(from, shard, epoch, p)
}

func (n *orderNet) check(from, shard int, p []byte) {
	stamps, err := stepStamps(p)
	n.mu.Lock()
	defer n.mu.Unlock()
	k := [2]int{from, shard}
	if err != nil || len(stamps) == 0 {
		n.errs = append(n.errs, fmt.Sprintf("origin %d shard %d: undecodable payload %x", from, shard, p))
		return
	}
	for _, ts := range stamps {
		if ts.Clock <= n.last[k] {
			n.errs = append(n.errs, fmt.Sprintf("origin %d shard %d sent stamp %d after %d", from, shard, ts.Clock, n.last[k]))
			return
		}
		n.last[k] = ts.Clock
	}
}

func (n *orderNet) verify(t *testing.T) {
	t.Helper()
	n.mu.Lock()
	defer n.mu.Unlock()
	if len(n.errs) > 0 {
		t.Fatalf("%d out-of-order sends, first: %s", len(n.errs), n.errs[0])
	}
	if len(n.last) == 0 {
		t.Fatal("nothing was sent")
	}
}

// TestStampOrderPerOrigin: eight goroutines writing through one replica
// (and through one 4-shard replica, checked per shard channel) never hand
// the transport a stamp below one it has already sent for that origin.
func TestStampOrderPerOrigin(t *testing.T) {
	const writers, perWriter = 8, 1000
	drive := func(update func(w, i int)) {
		var wg sync.WaitGroup
		for w := 0; w < writers; w++ {
			wg.Add(1)
			go func(w int) {
				defer wg.Done()
				for i := 0; i < perWriter; i++ {
					update(w, i)
				}
			}(w)
		}
		wg.Wait()
	}
	t.Run("replica", func(t *testing.T) {
		live := transport.NewLive(2)
		defer live.Close()
		net := newOrderNet(live)
		reps := Cluster(2, spec.Counter(), net, ClusterOptions{})
		drive(func(int, int) { reps[0].Update(spec.Add{N: 1}) })
		live.Drain()
		net.verify(t)
	})
	t.Run("sharded", func(t *testing.T) {
		live := transport.NewLiveSharded(2, 4)
		defer live.Close()
		net := newOrderNet(live)
		reps := ShardedCluster(2, 4, spec.CounterMap(), net, ClusterOptions{})
		drive(func(w, i int) { reps[0].Update(spec.AddKey{K: fmt.Sprintf("k%d", (w+i)%16), N: 1}) })
		live.Drain()
		net.verify(t)
	})
}
