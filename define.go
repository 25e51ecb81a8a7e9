package updatec

import (
	"fmt"
	"math/rand"

	"updatec/internal/spec"
)

// The open spec kit: the types a user-defined object is written
// against. They alias the internal spec package, so a custom UQ-ADT and
// the nine built-ins are the same kind of thing all the way down — the
// construction below the registry never distinguishes them.
//
// A Spec (the UQ-ADT of Definition 1) plus a Codec is everything Define
// needs. The remaining interfaces are optional capabilities: a spec
// that implements one unlocks the corresponding feature, probed by the
// option validation — nothing is keyed on object names.
//
//   - Partitionable unlocks WithShards, keyed routing and Resize.
//   - QueryKeyer unlocks the per-key query-output cache.
//   - AppendCodec unlocks allocation-free message encoding.
//   - QueryCodec unlocks queries from wire clients (Dial).
//   - StateCodec unlocks snapshot transfer (anti-entropy fallback,
//     crash repair) for states the log alone cannot rebuild.
//   - Undoable lets the query engine repair its kept state after a
//     late arrival by undo/redo instead of a rebuild.
//   - Commutative marks update commutativity: at WithConsistency(Causal)
//     a commutative object is causally consistent as well as convergent.
//   - Masking names what an update overwrites, so the replica's log
//     keeps one entry per register instead of one per write
//     (Algorithm 2's observation; MemoryObject, KVObject and
//     RegisterObject use it).
type (
	// State is an object state (Definition 1's S). Opaque to the
	// construction; only the Spec interprets it.
	State = spec.State
	// Update is an update operation (Definition 1's U).
	Update = spec.Update
	// QueryInput and QueryOutput are a query and its return value
	// (Definition 1's Q and answers).
	QueryInput = spec.QueryInput
	// QueryOutput is a query's return value.
	QueryOutput = spec.QueryOutput

	// Spec is a sequential specification: the UQ-ADT every replica
	// folds its update linearization through.
	Spec = spec.UQADT
	// Codec serializes updates for broadcast.
	Codec = spec.Codec
	// AppendCodec is the allocation-free upgrade of Codec.
	AppendCodec = spec.AppendCodec
	// QueryCodec serializes query inputs and outputs for wire clients.
	QueryCodec = spec.QueryCodec
	// StateCodec serializes whole states for snapshot transfer.
	StateCodec = spec.StateCodec
	// UndoPatch is an inverse patch returned by Undoable.ApplyUndo.
	UndoPatch = spec.Undo
	// Undoable is the capability behind the query engine's undo/redo
	// repair of late arrivals.
	Undoable = spec.Undoable
	// Partitionable is the capability behind WithShards and Resize:
	// per-key state decomposition with merge/unmerge/extract.
	Partitionable = spec.Partitionable
	// QueryKeyer is the capability behind the query-output cache.
	QueryKeyer = spec.QueryKeyer
	// QueryCacheKey is the cache key a QueryKeyer produces.
	QueryCacheKey = spec.QueryCacheKey
	// Commutative marks specs whose updates all commute.
	Commutative = spec.Commutative
	// Masking marks specs where a later update erases an earlier one
	// with the same mask key.
	Masking = spec.Masking
)

// defineConfig collects DefineOption state.
type defineConfig struct {
	omega    spec.QueryInput
	hasOmega bool
	workload func(rng *rand.Rand, key string) spec.Update
}

// DefineOption configures a Define call.
type DefineOption func(*defineConfig)

// WithOmega declares the object's converged (ω) query: the whole-state
// read a recorded run repeats at the end so the consistency deciders
// can compare final views. Without it the object works fine but
// WithRecording is refused — there is nothing to compare.
func WithOmega(in QueryInput) DefineOption {
	return func(c *defineConfig) { c.omega = in; c.hasOmega = true }
}

// WithWorkload supplies a random-update generator for the object, used
// by every harness that drives objects it did not write: the spectest
// conformance suite, the chaos harness, and ucsim's registry mode. key
// is the harness's suggested (possibly hot) key — generators for keyed
// objects should target it, others may ignore it; any further
// randomness must come from rng so runs stay seed-deterministic.
func WithWorkload(gen func(rng *rand.Rand, key string) Update) DefineOption {
	return func(c *defineConfig) { c.workload = gen }
}

// Define builds an Object descriptor for a user-defined UQ-ADT, the
// same kind of descriptor SetObject and the other built-ins return (the
// built-ins are themselves built on this kit). name is the object's
// registry and wire identity; s is the sequential specification; codec
// serializes updates for broadcast (nil if s implements Codec itself);
// wrap adapts the untyped replica Handle into the application's typed
// handle H.
//
// Capabilities are probed, not declared: if s implements Partitionable
// the object accepts WithShards and Resize; QueryKeyer enables the
// query cache; and so on (see the alias block above). The descriptor is
// registered under name — Lookup finds it, ucserve can serve it, and
// two wire peers built for different names refuse each other at
// handshake.
//
// A wire client (Dial) sends updates as codec bytes and queries through
// the object's QueryCodec. An object without one still takes updates
// over Dial; its queries there fail with ErrNoCodec.
func Define[H any](name string, s Spec, codec Codec, wrap func(Handle) H, opts ...DefineOption) (Object[H], error) {
	obj, err := define(name, s, codec, wrap, opts...)
	if err != nil {
		return Object[H]{}, err
	}
	if err := register(obj.Dynamic()); err != nil {
		return Object[H]{}, err
	}
	return obj, nil
}

// MustDefine is Define for package-init descriptors with known-good
// inputs; it panics on error.
func MustDefine[H any](name string, s Spec, codec Codec, wrap func(Handle) H, opts ...DefineOption) Object[H] {
	obj, err := Define(name, s, codec, wrap, opts...)
	if err != nil {
		panic(err)
	}
	return obj
}

// define validates and assembles a descriptor without registering it —
// the shared core of Define and the built-in descriptor functions
// (which register once, at package init, and may then be called any
// number of times).
func define[H any](name string, s Spec, codec Codec, wrap func(Handle) H, opts ...DefineOption) (Object[H], error) {
	if name == "" {
		return Object[H]{}, fmt.Errorf("updatec: Define with an empty object name: %w", ErrBadObject)
	}
	if s == nil {
		return Object[H]{}, fmt.Errorf("updatec: Define(%q) with a nil Spec: %w", name, ErrBadObject)
	}
	if wrap == nil {
		return Object[H]{}, fmt.Errorf("updatec: Define(%q) with nil handle wiring: %w", name, ErrBadObject)
	}
	if codec == nil {
		codec, _ = s.(spec.Codec)
	}
	if codec == nil {
		return Object[H]{}, fmt.Errorf("updatec: Define(%q): spec implements no Codec and none was supplied: %w", name, ErrNoCodec)
	}
	queries, ok := codec.(spec.QueryCodec)
	if !ok {
		queries, _ = s.(spec.QueryCodec)
	}
	var cfg defineConfig
	for _, o := range opts {
		o(&cfg)
	}
	return Object[H]{
		name:     name,
		adt:      s,
		codec:    codec,
		queries:  queries,
		wrap:     wrap,
		omega:    cfg.omega,
		hasOmega: cfg.hasOmega,
		workload: cfg.workload,
	}, nil
}

// mustDefine panics on a define error — for the built-in descriptors,
// whose inputs are statically correct.
func mustDefine[H any](obj Object[H], err error) Object[H] {
	if err != nil {
		panic(err)
	}
	return obj
}
