package updatec

import "errors"

// Sentinel errors. Every invalid object/option combination the package
// reports — from New, Define, Resize, Session, ListenAndServe, Dial and
// the registry — wraps one of these, so callers can classify failures
// with errors.Is instead of matching message text:
//
//	if _, _, err := updatec.New(3, obj, updatec.WithShards(4)); errors.Is(err, updatec.ErrUnsupported) {
//		// the object cannot shard; fall back to one shard
//	}
var (
	// ErrBadObject marks a malformed object descriptor: the zero
	// Object, a Define call with an empty name, nil spec or nil handle
	// wiring.
	ErrBadObject = errors.New("invalid object descriptor")

	// ErrBadOption marks an option value that is invalid regardless of
	// the object: a non-positive cluster size or shard count, a negative
	// worker count, an unknown consistency level.
	ErrBadOption = errors.New("invalid option value")

	// ErrUnsupported marks an object/option combination the object does
	// not support: WithShards on a non-partitionable spec, WithGC on a
	// causal cluster, Resize without the
	// Partitionable capability, and so on. The message says which
	// capability is missing.
	ErrUnsupported = errors.New("unsupported object/option combination")

	// ErrNoCodec marks a Define call whose spec neither implements
	// Codec nor was given an explicit one — updates could never be
	// broadcast.
	ErrNoCodec = errors.New("spec has no update codec")

	// ErrUnknownObject marks a registry Lookup for a name no Define or
	// built-in registered.
	ErrUnknownObject = errors.New("unknown object name")

	// ErrDuplicateObject marks a Define whose name is already
	// registered. Object names are a wire-level namespace (peers check
	// them at handshake), so they must be unique per process.
	ErrDuplicateObject = errors.New("object name already registered")

	// ErrObjectMismatch marks a wire handshake between two processes
	// that disagree on the object name: a ucserve peer or client built
	// for a different -obj than the daemon it reached.
	ErrObjectMismatch = errors.New("peers disagree on the object name")
)
