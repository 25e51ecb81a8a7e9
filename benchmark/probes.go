package main

import (
	"errors"
	"sync/atomic"
	"time"

	"updatec/internal/clock"
	"updatec/internal/core"
	"updatec/internal/spec"
	"updatec/internal/transport"
)

// Isolated layer drives. Each one feeds a single layer's public functions
// with the workload's own operation stream (same seed, same payloads, the
// arrival order the traced run recorded) and reports a unit price. The
// clock, codec, log, engine and replica drives run on every workload; the
// frame and TCP drives on the wire workloads and the anti-entropy drive on
// sim-heal only, the workloads whose path crosses those layers.

// probeInput is what the drives share.
type probeInput struct {
	driver   string
	adt      spec.UQADT
	codec    spec.AppendCodec
	updates  []spec.Update
	payloads [][]byte // message(ts, u): timestamp + codec bytes, as broadcast
	arrivals []clock.Timestamp
	readAll  spec.QueryInput
}

const probeMaxUpdates = 200000

func newProbeInput(s *script, arrivals []clock.Timestamp) *probeInput {
	in := &probeInput{driver: s.driver, arrivals: arrivals}
	in.adt, in.codec = objectSpec(s.object)
	in.readAll = spec.QueryInput(spec.Read{})
	if s.object == objLog {
		in.readAll = spec.ReadLog{}
	}
	for _, ops := range [][]op{s.preload, s.ops} {
		for _, o := range ops {
			if o.kind != opUpdate || len(in.updates) == probeMaxUpdates {
				continue
			}
			if s.object == objLog {
				in.updates = append(in.updates, spec.Append{V: o.arg})
			} else {
				in.updates = append(in.updates, spec.Ins{V: o.arg})
			}
		}
	}
	if len(in.arrivals) == 0 {
		// A wire workload has one origin and FIFO links: arrival order is
		// issue order.
		for i := range in.updates {
			in.arrivals = append(in.arrivals, clock.Timestamp{Clock: uint64(i + 1)})
		}
	}
	if len(in.arrivals) > len(in.updates) {
		in.arrivals = in.arrivals[:len(in.updates)]
	}
	return in
}

// perOp times f once over n operations.
func perOp(n int, f func()) float64 {
	t0 := time.Now()
	f()
	return float64(time.Since(t0)) / float64(n)
}

var sink any // keeps probe results alive

func (in *probeInput) clockTick(out map[string]float64) {
	var clk clock.AtomicLamport
	const n = 1 << 20
	out["clock.tick_ns"] = perOp(n, func() {
		for i := 0; i < n; i++ {
			clk.Tick()
		}
	})
}

func (in *probeInput) codecDrive(out map[string]float64) error {
	n := len(in.updates)
	in.payloads = make([][]byte, n)
	var scratch []byte
	var encErr error
	bytes := 0
	out["spec.encode_ns"] = perOp(n, func() {
		for i, u := range in.updates {
			scratch = clock.Timestamp{Clock: uint64(i + 1)}.Encode(scratch[:0])
			if scratch, encErr = in.codec.AppendUpdate(scratch, u); encErr != nil {
				return
			}
			in.payloads[i] = append([]byte(nil), scratch...)
			bytes += len(scratch)
		}
	})
	if encErr != nil {
		return encErr
	}
	out["spec.wire_bytes_per_update"] = float64(bytes) / float64(n)
	var decErr error
	out["spec.decode_ns"] = perOp(n, func() {
		for _, p := range in.payloads {
			_, off, _ := clock.DecodeTimestamp(p)
			if sink, decErr = in.codec.DecodeUpdate(p[off:]); decErr != nil {
				return
			}
		}
	})
	if decErr != nil {
		return decErr
	}
	out["spec.apply_ns"] = perOp(n, func() {
		s := in.adt.Initial()
		for _, u := range in.updates {
			s = in.adt.Apply(s, u)
		}
		sink = s
	})
	return nil
}

// frames prices the TCP transport's framing of the payloads codec built.
func (in *probeInput) frames(out map[string]float64) error {
	n := len(in.payloads)
	var framed []byte
	var decErr error
	out["transport.tcp.frame_encode_ns"] = perOp(n, func() {
		for _, p := range in.payloads {
			framed = transport.AppendFrame(framed, transport.Frame{Kind: transport.KindData, Payload: p})
		}
	})
	out["transport.tcp.frame_decode_ns"] = perOp(n, func() {
		for rest := framed; len(rest) > 0 && decErr == nil; {
			var used int
			_, used, decErr = transport.DecodeFrame(rest, transport.MaxFrame)
			rest = rest[used:]
		}
	})
	return decErr
}

// logAndEngine replays the recorded arrival order into a bare core.Log to
// learn the workload's late-insert shape, then prices an in-order insert,
// a late insert at the workload's median displaced depth (depth 1 when
// the workload has none), and the default engine on the resulting log.
func (in *probeInput) logAndEngine(out map[string]float64) {
	n := len(in.arrivals)
	log := core.NewLog(in.adt)
	var depths []float64
	for i, ts := range in.arrivals {
		at, _ := log.InsertDedup(core.Entry{TS: ts, U: in.updates[i]})
		if d := log.Len() - 1 - at; d > 0 {
			depths = append(depths, float64(d))
		}
	}
	depth := 1
	out["core.log.late_depth_p50"] = 0
	if len(depths) > 0 {
		depth = int(percentile(depths, 50))
		out["core.log.late_depth_p50"] = float64(depth)
	}

	fresh := core.NewLog(in.adt)
	out["core.log.insert_inorder_ns"] = perOp(n, func() {
		for i := 0; i < n; i++ {
			fresh.InsertDedup(core.Entry{TS: clock.Timestamp{Clock: uint64(i + 1)}, U: in.updates[i]})
		}
	})
	// Entries (c, 1), (c, 2), … all sort right after (c, 0) and before
	// (c+1, 0), so every one of them displaces exactly `depth` entries.
	depth = min(depth, n-1)
	at := uint64(n - depth)
	const late = 2000
	out["core.log.insert_late_ns"] = perOp(late, func() {
		for k := 1; k <= late; k++ {
			fresh.InsertDedup(core.Entry{TS: clock.Timestamp{Clock: at, Proc: k}, U: in.updates[0]})
		}
	})

	var eng core.Engine = core.NewReplayEngine()
	eng.Bind(in.adt, log)
	out["core.engine.state_ns"] = perOp(1, func() { sink = eng.State() })
	const calls = 1 << 20
	out["core.engine.inserted_ns"] = perOp(calls, func() {
		for i := 0; i < calls; i++ {
			eng.Inserted(i & 1023)
		}
	})
}

// loopNet is the smallest transport a bare replica can be attached to:
// broadcasts deliver to the sender only.
type loopNet struct{ h transport.Handler }

func (l *loopNet) Attach(_ int, h transport.Handler)  { l.h = h }
func (l *loopNet) Broadcast(from int, payload []byte) { l.h(from, payload) }

func (in *probeInput) bareReplica(id int, arrivals []clock.Timestamp) *core.Replica {
	r := core.NewReplica(core.Config{ID: id, N: 3, ADT: in.adt, Codec: in.codec, Net: &loopNet{}})
	for i, ts := range arrivals {
		r.Absorb(ts, in.updates[i])
	}
	return r
}

// replicaReads prices the replica's read paths at the workload's log
// length.
func (in *probeInput) replicaReads(out map[string]float64) {
	donor := in.bareReplica(0, in.arrivals)
	// A miss needs a new log version: issue one more update first.
	donor.Update(in.updates[0])
	out["core.replica.query_miss_ns"] = perOp(1, func() { sink = donor.Query(in.readAll) })
	donor.Update(in.updates[0])
	out["core.replica.statekey_ns"] = perOp(1, func() { sink = donor.StateKey() })
	const hits = 1 << 16
	out["core.replica.query_hit_ns"] = perOp(hits, func() {
		for i := 0; i < hits; i++ {
			sink = donor.Query(in.readAll)
		}
	})
}

// antiEntropy prices one pull in which the requester holds the first half
// of the arrivals and the donor all of them.
func (in *probeInput) antiEntropy(out map[string]float64) error {
	donor := in.bareReplica(0, in.arrivals)
	half := len(in.arrivals) / 2
	req := in.bareReplica(1, in.arrivals[:half])
	var d core.Digest
	out["core.sync.digest_ns"] = perOp(1, func() { d = req.Digest() })
	var payload []byte
	var err error
	out["core.sync.reply_ns"] = perOp(1, func() { payload, err = donor.SyncReply(d) })
	if err != nil {
		return err
	}
	applied := 0
	ns := perOp(1, func() { applied, err = req.ApplySync(payload) })
	if err != nil {
		return err
	}
	out["core.sync.apply_ns_per_entry"] = ns / float64(max(applied, 1))
	return nil
}

// tcpBroadcast runs three bare transport.NewTCP nodes with counting
// handlers and broadcasts the workload's payloads from node 0.
func (in *probeInput) tcpBroadcast(out map[string]float64) error {
	addrs, err := freeAddrs(3)
	if err != nil {
		return err
	}
	var got [3]atomic.Int64
	nodes := make([]*transport.TCPNetwork, 3)
	defer func() {
		for _, n := range nodes {
			if n != nil {
				n.Close()
			}
		}
	}()
	for id := range nodes {
		n, err := transport.NewTCP(transport.TCPOptions{ID: id, Peers: addrs, Listen: addrs[id]})
		if err != nil {
			return err
		}
		nodes[id] = n
		n.Attach(id, func(int, []byte) { got[id].Add(1) })
		n.Start()
	}
	deadline := time.Now().Add(10 * time.Second)
	linked := func() bool {
		for _, p := range nodes[0].PeerStats() {
			if !p.Connected {
				return false
			}
		}
		return true
	}
	for !linked() {
		if time.Now().After(deadline) {
			return errors.New("tcp probe: links did not come up")
		}
		time.Sleep(time.Millisecond)
	}
	payloads := in.payloads[:min(len(in.payloads), 50000)]
	want := int64(len(payloads))
	t0 := time.Now()
	for _, p := range payloads {
		nodes[0].Broadcast(0, p)
	}
	for got[1].Load() < want || got[2].Load() < want {
		if time.Now().After(deadline) {
			return errors.New("tcp probe: broadcasts did not arrive")
		}
		time.Sleep(100 * time.Microsecond)
	}
	out["transport.tcp.bcast_ops_s"] = float64(want) / time.Since(t0).Seconds()
	return nil
}

// once executes every isolated drive on fresh structures.
func (in *probeInput) once(out map[string]float64) error {
	in.clockTick(out)
	if err := in.codecDrive(out); err != nil {
		return err
	}
	in.logAndEngine(out)
	in.replicaReads(out)
	switch in.driver {
	case drvSim:
		return in.antiEntropy(out)
	case drvWire:
		if err := in.frames(out); err != nil {
			return err
		}
		return in.tcpBroadcast(out)
	}
	return nil
}

// run executes the drives three times and keeps each metric's median: a
// single pass is one sample per layer, and on this box one sample can be
// off by a factor of two.
func (in *probeInput) run(out map[string]float64) error {
	const passes = 3
	samples := map[string][]float64{}
	for i := 0; i < passes; i++ {
		pass := map[string]float64{}
		if err := in.once(pass); err != nil {
			return err
		}
		for k, v := range pass {
			samples[k] = append(samples[k], v)
		}
	}
	for k, xs := range samples {
		out[k] = median(xs)
	}
	return nil
}
