package updatec

import (
	"bufio"
	"errors"
	"fmt"
	"io"
	"math/rand"
	"net"
	"os"
	"os/exec"
	"path/filepath"
	"reflect"
	"strings"
	"sync"
	"syscall"
	"testing"
	"time"

	"updatec/internal/spec"
	"updatec/internal/transport"
)

// Loopback integration suite for the wire transport: in-process
// ListenAndServe clusters (full -race coverage of the daemon paths)
// and real multi-process ucserve clusters, including kill -9 and
// restart. A cluster has converged when its daemons' StateKeys — their
// update-set fingerprints — agree and so does every daemon's canonical
// state: Replica.StateKey in process, the object's ω query through a
// client. That state is then asserted against an in-process reference
// cluster fed the same updates where the workload is commutative
// (distinct inserts, counter adds, writes to distinct keys) — there the
// converged state is delivery-order independent and the comparison is
// exact; the order-sensitive log is held to mutual convergence plus
// per-writer order instead. Fingerprints of independent clusters differ
// (the same updates carry other timestamps), so the reference comparison
// is always of canonical state, never of keys.

// wireAddrs reserves n distinct loopback addresses: every listener stays
// open until all are taken, so the kernel cannot hand one port out twice.
func wireAddrs(t *testing.T, n int) []string {
	t.Helper()
	addrs := make([]string, n)
	for i := range addrs {
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			t.Fatal(err)
		}
		defer ln.Close()
		addrs[i] = ln.Addr().String()
	}
	return addrs
}

// waitWire polls cond until it holds; on timeout it logs what each dump
// returns (the nodes' stats) and fails.
func waitWire(t *testing.T, d time.Duration, what string, cond func() bool, dump ...func() string) {
	t.Helper()
	deadline := time.Now().Add(d)
	for !cond() {
		if time.Now().After(deadline) {
			for _, f := range dump {
				t.Log(f())
			}
			t.Fatalf("timed out waiting for %s", what)
		}
		time.Sleep(5 * time.Millisecond)
	}
}

// clientDump renders what a convergence timeout needs to explain
// itself: each daemon's state key and stats, asked through its client.
func clientDump[H any](cs []*Client[H]) func() string {
	return func() string {
		var b strings.Builder
		for i, c := range cs {
			key, kerr := c.StateKey()
			stats, serr := c.StatsText()
			fmt.Fprintf(&b, "daemon %d: key %q (err %v)\n%s(err %v)\n", i, key, kerr, stats, serr)
		}
		return b.String()
	}
}

// referenceWire replays the same workload on an in-process live cluster
// and returns it settled and converged; it closes when the test ends.
func referenceWire[H any](t *testing.T, obj Object[H], shards int, drive func(hs []H)) *Cluster[H] {
	t.Helper()
	var opts []Option
	if shards > 1 {
		opts = append(opts, WithShards(shards))
	}
	cl, hs, err := New(3, obj, opts...)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(cl.Close)
	drive(hs)
	cl.Settle()
	if !cl.Converged() {
		t.Fatal("reference cluster did not converge")
	}
	return cl
}

// refOmega is the reference cluster's answer to the object's ω query.
func refOmega[H any](obj Object[H], ref *Cluster[H]) string {
	in, _ := obj.Omega()
	return fmt.Sprint(ref.replicas[0].Query(in))
}

// omegaOf asks the daemon behind c the object's ω query.
func omegaOf[H any](obj Object[H], c *Client[H]) string {
	in, _ := obj.Omega()
	return fmt.Sprint(clientPort[H]{c}.Query(in))
}

// sameOmega reports whether every daemon behind cs answers the object's
// ω query with want.
func sameOmega[H any](obj Object[H], cs []*Client[H], want string) bool {
	for _, c := range cs {
		if omegaOf(obj, c) != want {
			return false
		}
	}
	return true
}

// runWireInProcess starts a 3-node ListenAndServe cluster over real
// loopback sockets, applies the workload through the daemon handles,
// waits for the three nodes to converge and returns their handles.
// With reference set, the converged state must also be the reference
// cluster's — sound only for workloads whose updates commute; an
// order-sensitive object converges to whatever timestamp order the run
// produced, and the caller checks what that order must satisfy. A
// convergence timeout prints each node's stats.
func runWireInProcess[H any](t *testing.T, obj Object[H], shards int, reference bool, drive func(hs []H)) []H {
	t.Helper()
	nodes := serveWireMesh(t, obj, WireConfig{Shards: shards})
	hs := make([]H, len(nodes))
	for i, n := range nodes {
		hs[i] = n.Handle()
	}
	drive(hs)
	want := ""
	if reference {
		want = referenceWire(t, obj, shards, drive).replicas[0].StateKey()
	}
	waitWireNodes(t, nodes, fmt.Sprintf("wire cluster convergence (reference state %q)", want), func(state string) bool {
		return !reference || state == want
	})
	return hs
}

// serveWire starts a ListenAndServe node on an address wireAddrs
// reserved, closed when the test ends. Such a port can be held for a
// moment as the local end of an earlier dial, refused at once since
// nothing listens there yet, so a bind that finds it in use is retried
// until the dial lets it go.
func serveWire[H any](t *testing.T, obj Object[H], cfg WireConfig) *WireNode[H] {
	t.Helper()
	node, err := ListenAndServe(obj, cfg)
	for try := 0; errors.Is(err, syscall.EADDRINUSE) && try < 100; try++ {
		time.Sleep(10 * time.Millisecond)
		node, err = ListenAndServe(obj, cfg)
	}
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { node.Close() })
	return node
}

// serveWireMesh starts a 3-node ListenAndServe cluster over real loopback
// sockets, each node configured as cfg with its own ID and the shared peer
// list, and waits until every peer link is up.
func serveWireMesh[H any](t *testing.T, obj Object[H], cfg WireConfig) []*WireNode[H] {
	t.Helper()
	cfg.Peers = wireAddrs(t, 3)
	nodes := make([]*WireNode[H], 3)
	for i := range nodes {
		cfg.ID = i
		nodes[i] = serveWire(t, obj, cfg)
	}
	waitWire(t, 10*time.Second, "peer mesh", func() bool {
		for _, n := range nodes {
			for _, p := range n.Stats().Peers {
				if !p.Connected {
					return false
				}
			}
		}
		return true
	})
	return nodes
}

// waitWireNodes flushes every node's outbound queues, then waits until all
// nodes hold one state key — the same updates — and, checked
// independently of that key, one canonical state that satisfies ok; a
// timeout prints each node's key, canonical state and stats.
func waitWireNodes[H any](t *testing.T, nodes []*WireNode[H], what string, ok func(state string) bool) {
	t.Helper()
	for _, n := range nodes {
		if err := n.Flush(5 * time.Second); err != nil {
			t.Fatal(err)
		}
	}
	waitWire(t, 10*time.Second, what, func() bool {
		key := nodes[0].StateKey()
		for _, n := range nodes[1:] {
			if n.StateKey() != key {
				return false
			}
		}
		state := nodes[0].rep.StateKey()
		for _, n := range nodes[1:] {
			if n.rep.StateKey() != state {
				return false
			}
		}
		return ok(state)
	}, func() string {
		var b strings.Builder
		for i, n := range nodes {
			fmt.Fprintf(&b, "node %d: key %q state %q\n%s", i, n.StateKey(), n.rep.StateKey(), n.StatsText())
		}
		return b.String()
	})
}

// TestWireInProcessConvergence runs the in-process wire cluster for
// every object kind the daemon serves with a log-based construction.
func TestWireInProcessConvergence(t *testing.T) {
	t.Run("set", func(t *testing.T) {
		runWireInProcess(t, SetObject(), 1, true, func(hs []*Set) {
			for i, h := range hs {
				for j := 0; j < 25; j++ {
					h.Insert(fmt.Sprintf("n%d-%d", i, j))
				}
			}
		})
	})
	t.Run("counter", func(t *testing.T) {
		runWireInProcess(t, CounterObject(), 1, true, func(hs []*Counter) {
			for i, h := range hs {
				for j := 0; j < 25; j++ {
					h.Add(int64(i + 1))
				}
			}
		})
	})
	t.Run("countermap-sharded", func(t *testing.T) {
		runWireInProcess(t, CounterMapObject(), 4, true, func(hs []*CounterMap) {
			for _, h := range hs {
				for j := 0; j < 25; j++ {
					h.Add(fmt.Sprintf("k%d", j%7), 1)
				}
			}
		})
	})
	t.Run("log", func(t *testing.T) {
		// Appends do not commute: which interleaving of the three
		// writers the nodes converge to depends on how the run's
		// timestamps fell, so there is no reference state to compare
		// with. What every run must satisfy is the criterion itself:
		// one common order, containing every writer's lines in the
		// order that writer appended them.
		const perWriter = 10
		hs := runWireInProcess(t, TextLogObject(), 1, false, func(hs []*TextLog) {
			for i, h := range hs {
				for j := 0; j < perWriter; j++ {
					h.Append(fmt.Sprintf("line %d from %d", j, i))
				}
			}
		})
		lines := hs[0].Lines()
		if len(lines) != perWriter*len(hs) {
			t.Fatalf("converged document has %d lines, want %d: %q", len(lines), perWriter*len(hs), lines)
		}
		next := make([]int, len(hs))
		for _, line := range lines {
			var j, i int
			if _, err := fmt.Sscanf(line, "line %d from %d", &j, &i); err != nil || i < 0 || i >= len(hs) {
				t.Fatalf("unexpected line %q in %q", line, lines)
			}
			if j != next[i] {
				t.Fatalf("writer %d's line %d is out of its program order in %q", i, j, lines)
			}
			next[i]++
		}
	})
	t.Run("kv", func(t *testing.T) {
		runWireInProcess(t, KVObject(), 2, true, func(hs []*KV) {
			for i, h := range hs {
				for j := 0; j < 25; j++ {
					h.Put(fmt.Sprintf("key%d-%d", i, j), fmt.Sprint(j))
				}
			}
		})
	})
	t.Run("memory-sharded", func(t *testing.T) {
		// Every node overwrites the same registers: arrivals below a
		// register's winner are masked, and the nodes must still agree.
		hs := runWireInProcess(t, MemoryObject("v0"), 2, false, func(hs []*Memory) {
			for i, h := range hs {
				for j := 0; j < 25; j++ {
					h.Write(fmt.Sprintf("r%d", j%5), fmt.Sprintf("%d-%d", i, j))
				}
			}
		})
		want := hs[0].Read("r0")
		for i, h := range hs {
			if got := h.Read("r0"); got != want || got == "v0" {
				t.Fatalf("node %d reads r0=%q, node 0 %q", i, got, want)
			}
		}
	})
}

// TestWireQueriesMatchInProcess asks every query input of every built-in
// descriptor through Dial and compares each answer with the daemon's own
// in-process answer, value for value (reflect.DeepEqual: an empty answer
// is an empty slice on both sides, not nil on one), on an empty daemon
// and again after a short workload.
func TestWireQueriesMatchInProcess(t *testing.T) {
	for _, tc := range []struct {
		obj Object[Handle]
		ins []QueryInput
	}{
		{SetObject().Dynamic(), []QueryInput{spec.Read{}, spec.Has{V: "k1"}, spec.Has{V: "absent"}}},
		{CounterObject().Dynamic(), []QueryInput{spec.Read{}}},
		{RegisterObject("v0").Dynamic(), []QueryInput{spec.Read{}}},
		{TextLogObject().Dynamic(), []QueryInput{spec.ReadLog{}}},
		{GraphObject().Dynamic(), []QueryInput{spec.ReadGraph{}}},
		{SequenceObject().Dynamic(), []QueryInput{spec.ReadSeq{}}},
		{KVObject().Dynamic(), []QueryInput{spec.ReadKey{K: "k1"}, spec.ReadKey{K: "absent"}}},
		{CounterMapObject().Dynamic(), []QueryInput{spec.ReadCtr{K: "k1"}, spec.ReadCtr{K: "absent"}, spec.ReadAllCtrs{}}},
		{MemoryObject("v0").Dynamic(), []QueryInput{spec.ReadKey{K: "k1"}, spec.ReadKey{K: "absent"}}},
	} {
		t.Run(tc.obj.Name(), func(t *testing.T) {
			node := serveWire(t, tc.obj, WireConfig{ID: 0, Peers: wireAddrs(t, 1)})
			c, err := Dial(tc.obj, node.Addr())
			if err != nil {
				t.Fatal(err)
			}
			defer c.Close()
			remote := c.Handle()
			compare := func(when string) {
				for _, in := range tc.ins {
					got, want := remote.Query(in), node.Handle().Query(in)
					if !reflect.DeepEqual(got, want) {
						t.Fatalf("%s, %v: Dial answered %#v, in process %#v", when, in, got, want)
					}
				}
			}
			compare("empty")
			rng := rand.New(rand.NewSource(1))
			for i := 0; i < 40; i++ {
				u, ok := tc.obj.RandomUpdate(rng, fmt.Sprint("k", i%4))
				if !ok {
					t.Fatal("built-in without a workload")
				}
				remote.Update(u)
			}
			if err := c.Flush(); err != nil {
				t.Fatal(err)
			}
			compare("after 40 updates")
		})
	}
}

// TestWireClientProtocol drives a daemon through Dial: updates, a
// read-your-writes query on the same connection, the protocol
// round-trips, and the cross-object mismatch error path.
func TestWireClientProtocol(t *testing.T) {
	node := serveWire(t, SetObject(), WireConfig{ID: 0, Peers: wireAddrs(t, 1)})

	c, err := Dial(SetObject(), node.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	set := c.Handle()
	set.Insert("alpha")
	set.Insert("beta")
	// Queries round-trip on the same connection the updates streamed
	// on, so they observe them without any barrier.
	if !set.Contains("alpha") || !set.Contains("beta") {
		t.Fatalf("read-your-writes failed: %v", set.Elements())
	}
	if err := c.Flush(); err != nil {
		t.Fatal(err)
	}
	key, err := c.StateKey()
	if err != nil {
		t.Fatal(err)
	}
	if key != node.StateKey() {
		t.Fatalf("client state key %q != daemon %q", key, node.StateKey())
	}
	txt, err := c.StatsText()
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(txt, "obj=set") {
		t.Fatalf("stats dump missing object line:\n%s", txt)
	}
	if err := c.Err(); err != nil {
		t.Fatal(err)
	}

	// A client speaking the wrong object's codec gets a decode error
	// reply, not corruption: the server rejects the update, the stream
	// stays aligned, and the rejection surfaces on the next query.
	wrong, err := Dial(CounterObject(), node.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer wrong.Close()
	ctr := wrong.Handle()
	ctr.Add(7)
	func() {
		defer func() {
			r := recover()
			if r == nil {
				t.Fatal("mismatched query must panic with the server rejection")
			}
			if !strings.Contains(fmt.Sprint(r), "server:") {
				t.Fatalf("unexpected panic: %v", r)
			}
		}()
		ctr.Value()
	}()
	if node.StateKey() != key {
		t.Fatal("rejected updates must not change daemon state")
	}
}

// TestWireRejectsGarbage throws raw TCP garbage at a daemon — both
// before and after a valid hello — and requires it to keep serving.
func TestWireRejectsGarbage(t *testing.T) {
	node := serveWire(t, SetObject(), WireConfig{ID: 0, Peers: wireAddrs(t, 1)})

	for _, junk := range [][]byte{
		[]byte("GET / HTTP/1.1\r\n\r\n"),
		{0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0x01},
		{0x05, 0x01, 0x02, 0x03, 0x04, 0x05},
	} {
		conn, err := net.Dial("tcp", node.Addr())
		if err != nil {
			t.Fatal(err)
		}
		conn.Write(junk)
		conn.Close()
	}
	waitWire(t, 5*time.Second, "bad frames counted", func() bool {
		return node.Stats().BadFrames > 0
	})

	c, err := Dial(SetObject(), node.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	c.Handle().Insert("still-alive")
	if !c.Handle().Contains("still-alive") {
		t.Fatal("daemon stopped serving after garbage connections")
	}
}

// TestWireHostilePeerPayload: a connection that speaks a valid peer hello
// and then sends a data frame whose payload does not decode — a lone
// 0xff, a truncated timestamp, a timestamp followed by op bytes the set
// codec does not know — costs that connection and nothing else. Each
// payload goes once to the tagged shard's handler (the frame's epoch is
// the node's shard count) and once through the router's cross-epoch
// branch: every connection is counted as one bad frame and closed by the
// daemon, nothing lands, and a client still inserts and reads. At the
// parent commit the first of these frames killed the process.
func TestWireHostilePeerPayload(t *testing.T) {
	var logged strings.Builder
	var logMu sync.Mutex
	node := serveWire(t, SetObject(), WireConfig{ID: 0, Peers: wireAddrs(t, 2), Logf: func(format string, args ...any) {
		logMu.Lock()
		defer logMu.Unlock()
		fmt.Fprintf(&logged, format+"\n", args...)
	}})

	hello := transport.AppendFrame(nil, transport.Frame{
		Kind: transport.KindHello, From: 1,
		// Magic, role, cluster size, no object name, data format.
		Payload: append([]byte(transport.WireMagic), transport.RolePeer, 2, 0, transport.PeerVersion),
	})
	empty, sent := node.StateKey(), 0
	for _, payload := range [][]byte{{0xff}, {0x01}, {0x01, 0x01, 0x05, 0x05}} {
		for _, epoch := range []int{node.rep.NumShards(), 0} {
			before := node.Stats().BadFrames
			conn, err := net.Dial("tcp", node.Addr())
			if err != nil {
				t.Fatal(err)
			}
			conn.Write(hello)
			conn.Write(transport.AppendFrame(nil, transport.Frame{Kind: transport.KindData, From: 1, Epoch: epoch, Payload: payload}))
			conn.SetReadDeadline(time.Now().Add(5 * time.Second))
			if _, err := conn.Read(make([]byte, 1)); err != io.EOF {
				t.Fatalf("payload %x epoch %d: the daemon kept the link (read: %v)", payload, epoch, err)
			}
			conn.Close()
			sent++
			if got := node.Stats().BadFrames; got != before+1 {
				t.Fatalf("payload %x epoch %d: BadFrames %d -> %d, want one more", payload, epoch, before, got)
			}
		}
	}
	logMu.Lock()
	dropped := strings.Count(logged.String(), "dropping receive link")
	logMu.Unlock()
	if dropped != sent {
		t.Fatalf("%d of %d dropped links were logged:\n%s", dropped, sent, logged.String())
	}
	if key := node.StateKey(); key != empty {
		t.Fatalf("hostile payloads landed state %s", key)
	}

	c, err := Dial(SetObject(), node.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	c.Handle().Insert("still-alive")
	if !c.Handle().Contains("still-alive") {
		t.Fatal("daemon stopped serving after hostile peer payloads")
	}
}

// TestWireConcurrentGCWriters: three GC daemons, each written by four
// goroutines through its handle — what serveClient does for four Dial
// clients of `ucserve -gc` — converge to the exact per-key sums. A daemon
// whose writers hand the transport stamps out of order makes its peers
// observe a stamp, compact past it and then receive a lower one: at the
// parent commit that invariant panic escaped handleFrame and killed the
// test binary.
func TestWireConcurrentGCWriters(t *testing.T) {
	const writers, perWriter, keys = 4, 2000, 7
	nodes := serveWireMesh(t, CounterMapObject(), WireConfig{GC: true})
	var wg sync.WaitGroup
	for _, n := range nodes {
		for w := 0; w < writers; w++ {
			wg.Add(1)
			go func(h *CounterMap, w int) {
				defer wg.Done()
				for k := 0; k < perWriter; k++ {
					h.Add(fmt.Sprintf("k%d", (w+k)%keys), 1)
				}
			}(n.Handle(), w)
		}
	}
	wg.Wait()
	want := int64(len(nodes) * writers * perWriter)
	waitWireNodes(t, nodes, fmt.Sprintf("GC wire cluster convergence at sum %d", want), func(string) bool {
		var total int64
		for k := 0; k < keys; k++ {
			total += nodes[0].Handle().Value(fmt.Sprintf("k%d", k))
		}
		return total == want
	})
}

// TestWireMixedShardCounts: the daemons of one cluster pick their shard
// counts on their own. Three in-process daemons at 1, 2 and 4 shards,
// written on every daemon, converge — with GC off and on — to the ω
// answer of an unsharded reference and to one fingerprint; the 1-shard
// daemon is closed, the others keep writing, and once restarted it is
// written to only after its on-connect pulls (a restarted daemon can
// reuse a stamp before them, ROADMAP item 3). Every delivery between two
// of them crosses routing epochs, and with GC every daemon still
// compacts. Writes wait for every link to be up: an update sent to a
// peer whose link is down is dropped, and with GC a peer can compact past
// it before the sync reply that repairs it lands (ROADMAP item 17).
func TestWireMixedShardCounts(t *testing.T) {
	obj := CounterMapObject()
	counts := []int{1, 2, 4}
	for _, gc := range []bool{false, true} {
		t.Run(fmt.Sprintf("gc=%v", gc), func(t *testing.T) {
			addrs := wireAddrs(t, 3)
			nodes := make([]*WireNode[*CounterMap], 3)
			start := func(i int) {
				nodes[i] = serveWire(t, obj, WireConfig{ID: i, Peers: addrs, Shards: counts[i], GC: gc})
			}
			meshUp := func(what string) {
				t.Helper()
				waitWire(t, 10*time.Second, what, func() bool {
					for _, n := range nodes {
						for _, p := range n.Stats().Peers {
							if !p.Connected {
								return false
							}
						}
					}
					return true
				})
			}
			for i := range nodes {
				start(i)
			}
			meshUp("peer mesh")
			// phase has the writers add on their daemons, and on the reference
			// replica of the same id.
			var script []func(hs []*CounterMap)
			phase := func(writers ...int) {
				step := len(script)
				write := func(hs []*CounterMap) {
					for j := 0; j < 150; j++ {
						for _, i := range writers {
							hs[i].Add(fmt.Sprintf("k%d", (i*7+j+step)%11), int64(i+1))
						}
					}
				}
				script = append(script, write)
				hs := make([]*CounterMap, len(nodes))
				for _, i := range writers {
					hs[i] = nodes[i].Handle()
				}
				write(hs)
			}
			omega := func(n *WireNode[*CounterMap]) string {
				in, _ := obj.Omega()
				return fmt.Sprint(n.rep.Query(in))
			}
			converge := func(what string, live []*WireNode[*CounterMap]) {
				t.Helper()
				for _, n := range live {
					if err := n.Flush(5 * time.Second); err != nil {
						t.Fatal(err)
					}
				}
				want := refOmega(obj, referenceWire(t, obj, 1, func(hs []*CounterMap) {
					for _, write := range script {
						write(hs)
					}
				}))
				waitWire(t, 15*time.Second, what, func() bool {
					for _, n := range live {
						if n.StateKey() != live[0].StateKey() || omega(n) != want {
							return false
						}
					}
					return true
				}, func() string {
					var b strings.Builder
					for _, n := range live {
						fmt.Fprintf(&b, "key %s omega %s\n%s", n.StateKey(), omega(n), n.StatsText())
					}
					return b.String()
				})
			}
			phase(0, 1, 2)
			converge("mixed-count convergence", nodes)

			nodes[0].Close()
			phase(1, 2)
			converge("survivor convergence", nodes[1:])

			start(0)
			meshUp("peer mesh after the restart")
			waitWire(t, 10*time.Second, "the survivors' new links to the restarted daemon", func() bool {
				for _, n := range nodes[1:] {
					if p := n.Stats().Peers[0]; p.Peer != 0 || p.Connects < 2 {
						return false
					}
				}
				return true
			})
			waitWire(t, 15*time.Second, "the restarted daemon's on-connect pulls", func() bool {
				return nodes[0].Stats().SyncsApplied > 0 && nodes[0].StateKey() == nodes[1].StateKey()
			})
			phase(0, 1, 2)
			converge("convergence after the restart", nodes)
			if !gc {
				return
			}
			for i, n := range nodes {
				if st := n.rep.Stats(); st.Compacted == 0 {
					t.Fatalf("the %d-shard daemon %d never compacted: %+v", counts[i], i, st)
				}
			}
		})
	}
}

// TestWireConfigRejections pins the constructor's validation: the wire
// transport refuses sharding non-partitionable objects and out-of-range
// ids, with errors rather than panics.
func TestWireConfigRejections(t *testing.T) {
	addrs := wireAddrs(t, 1)
	if _, err := ListenAndServe(CounterObject(), WireConfig{ID: 0, Peers: addrs, Shards: 4}); err == nil {
		t.Fatal("sharding a non-partitionable object must be rejected")
	}
	if _, err := ListenAndServe(SetObject(), WireConfig{ID: 3, Peers: addrs}); err == nil {
		t.Fatal("out-of-range ID must be rejected")
	}
}

// ---- multi-process suite: real ucserve daemons on loopback ----

var (
	ucserveOnce sync.Once
	ucserveBin  string
	ucserveErr  error
)

// buildUcserve compiles cmd/ucserve once per test binary run.
func buildUcserve(t *testing.T) string {
	t.Helper()
	ucserveOnce.Do(func() {
		dir, err := os.MkdirTemp("", "ucserve-test-")
		if err != nil {
			ucserveErr = err
			return
		}
		ucserveBin = filepath.Join(dir, "ucserve")
		out, err := exec.Command("go", "build", "-o", ucserveBin, "./cmd/ucserve").CombinedOutput()
		if err != nil {
			ucserveErr = fmt.Errorf("building ucserve: %v\n%s", err, out)
		}
	})
	if ucserveErr != nil {
		t.Fatal(ucserveErr)
	}
	return ucserveBin
}

type wireDaemon struct {
	cmd  *exec.Cmd
	done chan struct{} // closed once the process has exited
}

// startDaemon launches one ucserve process and waits until it serves;
// cleanup kills it if the test did not already. A daemon whose address
// was held for a moment (see serveWire) exits at once and is started
// again.
func startDaemon(t *testing.T, bin string, id int, peers []string, objName string, extra ...string) *wireDaemon {
	t.Helper()
	args := append([]string{
		"-id", fmt.Sprint(id),
		"-peers", strings.Join(peers, ","),
		"-obj", objName,
	}, extra...)
	for try := 0; ; try++ {
		d, err := launchDaemon(bin, args)
		if err == nil {
			t.Cleanup(d.kill)
			return d
		}
		if !strings.Contains(err.Error(), "address already in use") || try == 100 {
			t.Fatal(err)
		}
		time.Sleep(10 * time.Millisecond)
	}
}

// launchDaemon starts a ucserve process and returns once it says that it
// serves, or an error carrying its stderr once it exits instead.
func launchDaemon(bin string, args []string) (*wireDaemon, error) {
	out, w := io.Pipe()
	var stderr strings.Builder
	cmd := exec.Command(bin, args...)
	cmd.Stdout = w
	cmd.Stderr = io.MultiWriter(os.Stderr, &stderr)
	if err := cmd.Start(); err != nil {
		return nil, err
	}
	d := &wireDaemon{cmd: cmd, done: make(chan struct{})}
	go func() {
		cmd.Wait()
		w.Close()
		close(d.done)
	}()
	sc := bufio.NewScanner(out)
	for sc.Scan() {
		if strings.Contains(sc.Text(), " serving ") {
			go io.Copy(io.Discard, out)
			return d, nil
		}
	}
	<-d.done
	return nil, fmt.Errorf("ucserve %s exited before serving: %s", strings.Join(args, " "), stderr.String())
}

// kill is SIGKILL — the crash under test, and the cleanup path.
func (d *wireDaemon) kill() {
	d.cmd.Process.Kill()
	<-d.done
}

// dialRetry waits out a daemon's startup window.
func dialRetry[H any](t *testing.T, obj Object[H], addr string) *Client[H] {
	t.Helper()
	deadline := time.Now().Add(10 * time.Second)
	for {
		c, err := Dial(obj, addr)
		if err == nil {
			if _, err = c.StateKey(); err == nil {
				t.Cleanup(func() { c.Close() })
				return c
			}
			c.Close()
		}
		if time.Now().After(deadline) {
			t.Fatalf("daemon at %s never became ready: %v", addr, err)
		}
		time.Sleep(25 * time.Millisecond)
	}
}

// waitClients polls daemons through their clients until they all report
// one state key — they hold the same updates — and ok holds.
func waitClients[H any](t *testing.T, cs []*Client[H], what string, ok func() bool) {
	t.Helper()
	waitWire(t, 15*time.Second, what, func() bool {
		want, err := cs[0].StateKey()
		if err != nil {
			return false
		}
		for _, c := range cs[1:] {
			key, err := c.StateKey()
			if err != nil || key != want {
				return false
			}
		}
		return ok()
	}, clientDump(cs))
}

// runWireProcs spawns a 3-daemon ucserve cluster, daemon i at shards[i]
// shards, applies the workload through one Dial client per daemon, and
// requires every daemon to converge to the in-process reference state.
func runWireProcs[H any](t *testing.T, objName string, obj Object[H], shards []int, drive func(hs []H)) []*Client[H] {
	t.Helper()
	bin := buildUcserve(t)
	addrs := wireAddrs(t, 3)
	for id := range addrs {
		startDaemon(t, bin, id, addrs, objName, "-shards", fmt.Sprint(shards[id]))
	}
	cs := make([]*Client[H], 3)
	hs := make([]H, 3)
	for i, addr := range addrs {
		cs[i] = dialRetry(t, obj, addr)
		hs[i] = cs[i].Handle()
	}
	drive(hs)
	for _, c := range cs {
		if err := c.Flush(); err != nil {
			t.Fatal(err)
		}
	}
	want := refOmega(obj, referenceWire(t, obj, shards[0], drive))
	waitClients(t, cs, objName+" cluster convergence", func() bool { return sameOmega(obj, cs, want) })
	return cs
}

// TestWireMultiProcessConvergence: three real daemon processes per
// object kind, driven concurrently from three clients, must reach the
// in-process reference state.
func TestWireMultiProcessConvergence(t *testing.T) {
	if testing.Short() {
		t.Skip("multi-process suite skipped in -short")
	}
	t.Run("set", func(t *testing.T) {
		runWireProcs(t, "set", SetObject(), []int{1, 1, 1}, func(hs []*Set) {
			for i, h := range hs {
				for j := 0; j < 30; j++ {
					h.Insert(fmt.Sprintf("p%d-%d", i, j))
				}
			}
		})
	})
	t.Run("counter", func(t *testing.T) {
		runWireProcs(t, "counter", CounterObject(), []int{1, 1, 1}, func(hs []*Counter) {
			for i, h := range hs {
				for j := 0; j < 30; j++ {
					h.Add(int64(i + 1))
				}
			}
		})
	})
	countermap := func(hs []*CounterMap) {
		for _, h := range hs {
			for j := 0; j < 30; j++ {
				h.Add(fmt.Sprintf("k%d", j%5), 1)
			}
		}
	}
	t.Run("countermap-sharded", func(t *testing.T) {
		runWireProcs(t, "countermap", CounterMapObject(), []int{2, 2, 2}, countermap)
	})
	// Each daemon's -shards is its own choice: ucserve -shards 1, 2 and 4
	// form one cluster.
	t.Run("countermap-mixed-shards", func(t *testing.T) {
		runWireProcs(t, "countermap", CounterMapObject(), []int{1, 2, 4}, countermap)
	})
}

// runWireProcsMutual is the all-kinds variant: it requires the three
// daemons to agree with each other (the paper's convergence guarantee)
// without a reference comparison — non-commutative workloads (register
// writes, sequence inserts) converge to a timestamp-order-dependent
// state that an independently-timestamped reference cannot reproduce.
func runWireProcsMutual[H any](t *testing.T, objName string, obj Object[H], extra []string, drive func(hs []H)) {
	t.Helper()
	bin := buildUcserve(t)
	addrs := wireAddrs(t, 3)
	for id := range addrs {
		startDaemon(t, bin, id, addrs, objName, extra...)
	}
	cs := make([]*Client[H], 3)
	hs := make([]H, 3)
	for i, addr := range addrs {
		cs[i] = dialRetry(t, obj, addr)
		hs[i] = cs[i].Handle()
	}
	drive(hs)
	for _, c := range cs {
		if err := c.Flush(); err != nil {
			t.Fatal(err)
		}
	}
	waitClients(t, cs, objName+" mutual convergence", func() bool { return sameOmega(obj, cs, omegaOf(obj, cs[0])) })
}

// TestWireMultiProcessAllKinds runs a real 3-daemon cluster for every
// object kind the daemon serves and requires convergence — the
// acceptance sweep behind `make test-wire`.
func TestWireMultiProcessAllKinds(t *testing.T) {
	if testing.Short() {
		t.Skip("multi-process suite skipped in -short")
	}
	t.Run("set", func(t *testing.T) {
		runWireProcsMutual(t, "set", SetObject(), nil, func(hs []*Set) {
			for i, h := range hs {
				for j := 0; j < 10; j++ {
					h.Insert(fmt.Sprintf("v%d-%d", i, j))
				}
				h.Delete(fmt.Sprintf("v%d-0", i))
			}
		})
	})
	t.Run("counter", func(t *testing.T) {
		runWireProcsMutual(t, "counter", CounterObject(), nil, func(hs []*Counter) {
			for i, h := range hs {
				h.Add(int64(10 * (i + 1)))
			}
		})
	})
	t.Run("countermap", func(t *testing.T) {
		runWireProcsMutual(t, "countermap", CounterMapObject(), []string{"-shards", "2"}, func(hs []*CounterMap) {
			for i, h := range hs {
				for j := 0; j < 10; j++ {
					h.Add(fmt.Sprintf("k%d", j%4), int64(i+1))
				}
			}
		})
	})
	t.Run("register", func(t *testing.T) {
		runWireProcsMutual(t, "register", RegisterObject(""), nil, func(hs []*Register) {
			for i, h := range hs {
				h.Write(fmt.Sprintf("candidate-%d", i))
			}
		})
	})
	t.Run("log", func(t *testing.T) {
		runWireProcsMutual(t, "log", TextLogObject(), nil, func(hs []*TextLog) {
			for i, h := range hs {
				for j := 0; j < 5; j++ {
					h.Append(fmt.Sprintf("line %d from %d", j, i))
				}
			}
		})
	})
	t.Run("kv", func(t *testing.T) {
		runWireProcsMutual(t, "kv", KVObject(), []string{"-shards", "2"}, func(hs []*KV) {
			for i, h := range hs {
				for j := 0; j < 10; j++ {
					h.Put(fmt.Sprintf("shared%d", j), fmt.Sprintf("from-%d", i))
				}
			}
		})
	})
	t.Run("memory", func(t *testing.T) {
		// ucserve -obj memory, driven through Dial clients. The writes
		// race on the register the ω query reads (""), so the daemons
		// must agree on its winner, with the losers masked wherever they
		// arrive late.
		runWireProcsMutual(t, "memory", MemoryObject(""), []string{"-shards", "2"}, func(hs []*Memory) {
			for i, h := range hs {
				for j := 0; j < 10; j++ {
					h.Write("", fmt.Sprintf("from-%d-%d", i, j))
					h.Write(fmt.Sprintf("r%d", j%3), fmt.Sprint(i))
				}
			}
		})
	})
	t.Run("graph", func(t *testing.T) {
		runWireProcsMutual(t, "graph", GraphObject(), nil, func(hs []*Graph) {
			for i, h := range hs {
				a, b := fmt.Sprintf("n%d", i), fmt.Sprintf("n%d", (i+1)%3)
				h.AddVertex(a)
				h.AddVertex(b)
				h.AddEdge(a, b)
			}
		})
	})
	t.Run("sequence", func(t *testing.T) {
		runWireProcsMutual(t, "sequence", SequenceObject(), nil, func(hs []*Sequence) {
			for i, h := range hs {
				h.InsertAt(0, fmt.Sprintf("head-%d", i))
				h.InsertAt(1, fmt.Sprintf("tail-%d", i))
			}
		})
	})
}

// TestWireCLIClient exercises the ucserve -client subcommand against a
// live daemon: inserts, a barrier, a query and statekey.
func TestWireCLIClient(t *testing.T) {
	if testing.Short() {
		t.Skip("multi-process suite skipped in -short")
	}
	bin := buildUcserve(t)
	addrs := wireAddrs(t, 1)
	startDaemon(t, bin, 0, addrs, "set")
	dialRetry(t, SetObject(), addrs[0])
	out, err := exec.Command(bin, "-client", addrs[0], "-obj", "set",
		"insert", "cli-x", "insert", "cli-y", "ping", "elems", "statekey").CombinedOutput()
	if err != nil {
		t.Fatalf("cli client: %v\n%s", err, out)
	}
	if !strings.Contains(string(out), "cli-x") || !strings.Contains(string(out), "cli-y") {
		t.Fatalf("cli elems missing inserted values:\n%s", out)
	}
}

// TestWireKillRestartRepair is the acceptance fault scenario on real
// processes: converge a 3-daemon sharded cluster, kill -9 one daemon,
// keep writing, restart it with the same flags, and require the
// restarted replica to converge — via the on-connect digest exchange —
// to the state of an unfaulted in-process reference cluster.
func TestWireKillRestartRepair(t *testing.T) {
	if testing.Short() {
		t.Skip("multi-process suite skipped in -short")
	}
	bin := buildUcserve(t)
	addrs := wireAddrs(t, 3)
	daemons := make([]*wireDaemon, 3)
	for id := range addrs {
		daemons[id] = startDaemon(t, bin, id, addrs, "countermap", "-shards", "2")
	}
	c0 := dialRetry(t, CounterMapObject(), addrs[0])
	c1 := dialRetry(t, CounterMapObject(), addrs[1])
	c2 := dialRetry(t, CounterMapObject(), addrs[2])

	phase1 := func(h0, h1 *CounterMap) {
		for j := 0; j < 40; j++ {
			h0.Add(fmt.Sprintf("a%d", j%3), 1)
			h1.Add(fmt.Sprintf("b%d", j%3), 1)
		}
	}
	phase2 := func(h0 *CounterMap) {
		for j := 0; j < 40; j++ {
			h0.Add(fmt.Sprintf("c%d", j%3), 1)
		}
	}

	phase1(c0.Handle(), c1.Handle())
	if err := c0.Flush(); err != nil {
		t.Fatal(err)
	}
	if err := c1.Flush(); err != nil {
		t.Fatal(err)
	}
	obj := CounterMapObject()
	all := []*Client[*CounterMap]{c0, c1, c2}
	ref1 := refOmega(obj, referenceWire(t, obj, 2, func(hs []*CounterMap) { phase1(hs[0], hs[1]) }))
	waitClients(t, all, "pre-kill convergence", func() bool { return sameOmega(obj, all, ref1) })

	// kill -9: no flush, no goodbye. The ping barrier above made the
	// pre-kill state durable on the survivors.
	daemons[2].kill()
	c2.Close()

	phase2(c0.Handle())
	if err := c0.Flush(); err != nil {
		t.Fatal(err)
	}
	ref2 := refOmega(obj, referenceWire(t, obj, 2, func(hs []*CounterMap) {
		phase1(hs[0], hs[1])
		phase2(hs[0])
	}))
	survivors := []*Client[*CounterMap]{c0, c1}
	waitClients(t, survivors, "survivor convergence", func() bool { return sameOmega(obj, survivors, ref2) })

	// Restart with the same flags: the daemon comes back empty and the
	// on-connect digest exchange pulls everything it ever missed. The
	// restarted daemon's own state is held to the reference, not only its
	// update-set key to its peers'.
	daemons[2] = startDaemon(t, bin, 2, addrs, "countermap", "-shards", "2")
	c2 = dialRetry(t, obj, addrs[2])
	all = []*Client[*CounterMap]{c0, c1, c2}
	waitClients(t, all, "restarted replica repair", func() bool { return sameOmega(obj, all, ref2) })
}
