// Command ucserve runs one replica of a wire-distributed updatec
// cluster as a daemon, or acts as a client to a running daemon.
//
// Daemon:
//
//	ucserve -id 0 -listen :7001 -peers :7001,:7002,:7003 -obj set [-shards 4] [-gc]
//	        [-batch bytes] [-queue len] [-v]
//
// Every process of the cluster runs the same -peers list (index =
// replica id) with its own -id. The daemon serves replication traffic
// to its peers and the framed client protocol on the same port. A
// kill -9'd daemon can simply be restarted: the on-connect digest
// exchange pulls everything it missed from its peers. SIGUSR1 dumps
// stats to stderr; SIGINT/SIGTERM flush the send queues and exit.
//
// Client:
//
//	ucserve -client ADDR -obj set insert x insert y elems
//	ucserve -client ADDR statekey
//	ucserve -client ADDR stats
//
// Each remaining argument is one command. Protocol-level commands
// (statekey, stats, ping) work for any object; statekey prints the
// daemon's update-set fingerprint, equal on two daemons of one cluster
// exactly when they hold the same update stamps (the same updates, as
// long as no daemon was written to straight after a restart, before it
// caught up with its peers). Data commands depend on -obj:
//
//	set:        insert V | delete V | elems
//	counter:    add N | value
//	countermap: add K N | value K | all
//	register:   write V | read
//	log:        append V | read
//	kv:         put K V | get K
//
// -obj resolves through the object registry, so the daemon serves any
// registered object — including ones an embedding program added with
// updatec.Define — not just the built-ins with client command tables
// above. The wire hello carries the object name: peers and clients
// built for a different object are refused at handshake.
package main

import (
	"flag"
	"fmt"
	"os"
	"os/signal"
	"strconv"
	"strings"
	"syscall"
	"time"

	"updatec"
	"updatec/internal/spec"
)

func main() {
	var (
		id     = flag.Int("id", 0, "replica id (index into -peers)")
		listen = flag.String("listen", "", "listen address (default: the -peers entry for -id)")
		peers  = flag.String("peers", "", "comma-separated cluster addresses, one per replica id")
		obj    = flag.String("obj", "set", "registered object name: "+strings.Join(updatec.Objects(), ", "))
		shards = flag.Int("shards", 1, "key shards per replica (partitionable objects)")
		gc     = flag.Bool("gc", false, "enable stability-based log compaction")
		batch  = flag.Int("batch", 0, "outbound batch coalescing threshold in bytes (default 64KiB; 1 disables)")
		queue  = flag.Int("queue", 0, "per-peer send queue bound in updates (default 4096)")
		client = flag.String("client", "", "run as client against the given daemon address")
		verb   = flag.Bool("v", false, "log connection lifecycle events")
	)
	flag.Parse()

	if *client != "" {
		if err := runClient(*client, *obj, flag.Args()); err != nil {
			fmt.Fprintln(os.Stderr, "ucserve:", err)
			os.Exit(1)
		}
		return
	}

	if *peers == "" {
		fmt.Fprintln(os.Stderr, "ucserve: -peers is required in daemon mode")
		os.Exit(2)
	}
	cfg := updatec.WireConfig{
		ID:         *id,
		Peers:      strings.Split(*peers, ","),
		Listen:     *listen,
		Shards:     *shards,
		GC:         *gc,
		BatchBytes: *batch,
		QueueLen:   *queue,
	}
	if *verb {
		cfg.Logf = func(format string, args ...any) {
			fmt.Fprintf(os.Stderr, "ucserve[%d]: "+format+"\n", append([]any{*id}, args...)...)
		}
	}
	node, err := serve(*obj, cfg)
	if err != nil {
		fmt.Fprintln(os.Stderr, "ucserve:", err)
		os.Exit(1)
	}
	fmt.Printf("ucserve: replica %d serving %s on %s\n", *id, *obj, node.Addr())

	sigs := make(chan os.Signal, 1)
	signal.Notify(sigs, syscall.SIGINT, syscall.SIGTERM, syscall.SIGUSR1)
	for sig := range sigs {
		if sig == syscall.SIGUSR1 {
			fmt.Fprint(os.Stderr, node.StatsText())
			continue
		}
		// Graceful shutdown: drain the send queues so peers receive
		// everything this replica broadcast, then close.
		node.Flush(5 * time.Second)
		node.Close()
		return
	}
}

// wireServer is the object-independent daemon surface of the generic
// WireNode.
type wireServer interface {
	Addr() string
	StateKey() string
	StatsText() string
	Flush(time.Duration) error
	Close() error
}

// serve starts the daemon for the named registry object. Nothing here
// is keyed on built-in names: any registered object serves, and
// ListenAndServe itself refuses configurations the object cannot take
// (shards on a non-partitionable spec).
func serve(name string, cfg updatec.WireConfig) (wireServer, error) {
	obj, err := updatec.Lookup(name)
	if err != nil {
		return nil, err
	}
	return updatec.ListenAndServe(obj, cfg)
}

// wireCmd is one data-command: its argument count and how the
// arguments become a wire operation. Exactly one of update/query is
// set; query results print as one line.
type wireCmd struct {
	n      int
	update func(args []string) (updatec.Update, error)
	query  func(args []string) (updatec.QueryInput, error)
}

// commands maps the CLI verb tables per object name. These tables are
// the client's UI, not the daemon's capability surface: the daemon
// serves any registered object, and protocol commands (statekey,
// stats, ping) work against all of them. Objects without a table here
// — graph, sequence, user Defines — are driven programmatically
// through updatec.Dial instead.
var commands = map[string]map[string]wireCmd{
	"set": {
		"insert": {n: 1, update: func(a []string) (updatec.Update, error) { return spec.Ins{V: a[0]}, nil }},
		"delete": {n: 1, update: func(a []string) (updatec.Update, error) { return spec.Del{V: a[0]}, nil }},
		"elems":  {query: func([]string) (updatec.QueryInput, error) { return spec.Read{}, nil }},
	},
	"counter": {
		"add": {n: 1, update: func(a []string) (updatec.Update, error) {
			n, err := strconv.ParseInt(a[0], 10, 64)
			return spec.Add{N: n}, err
		}},
		"value": {query: func([]string) (updatec.QueryInput, error) { return spec.Read{}, nil }},
	},
	"countermap": {
		"add": {n: 2, update: func(a []string) (updatec.Update, error) {
			n, err := strconv.ParseInt(a[1], 10, 64)
			return spec.AddKey{K: a[0], N: n}, err
		}},
		"value": {n: 1, query: func(a []string) (updatec.QueryInput, error) { return spec.ReadCtr{K: a[0]}, nil }},
		"all":   {query: func([]string) (updatec.QueryInput, error) { return spec.ReadAllCtrs{}, nil }},
	},
	"register": {
		"write": {n: 1, update: func(a []string) (updatec.Update, error) { return spec.Write{V: a[0]}, nil }},
		"read":  {query: func([]string) (updatec.QueryInput, error) { return spec.Read{}, nil }},
	},
	"log": {
		"append": {n: 1, update: func(a []string) (updatec.Update, error) { return spec.Append{V: a[0]}, nil }},
		"read":   {query: func([]string) (updatec.QueryInput, error) { return spec.ReadLog{}, nil }},
	},
	"kv": {
		"put": {n: 2, update: func(a []string) (updatec.Update, error) { return spec.WriteKey{K: a[0], V: a[1]}, nil }},
		"get": {n: 1, query: func(a []string) (updatec.QueryInput, error) { return spec.ReadKey{K: a[0]}, nil }},
	},
}

func errUnknown(verb string) error {
	return fmt.Errorf("unknown command %q (protocol commands: statekey, stats, ping)", verb)
}

// runClient dials the daemon as the named registry object, splits the
// flat argument list into commands using the verb table, and executes
// them in order, printing one line per query result.
func runClient(addr, name string, cmds []string) error {
	if len(cmds) == 0 {
		return fmt.Errorf("no commands; try: ucserve -client %s statekey", addr)
	}
	obj, err := updatec.Lookup(name)
	if err != nil {
		return err
	}
	c, err := updatec.Dial(obj, addr)
	if err != nil {
		return err
	}
	defer c.Close()
	h := c.Handle()
	table := commands[name]
	for i := 0; i < len(cmds); {
		verb := cmds[i]
		i++
		switch verb {
		case "statekey":
			key, err := c.StateKey()
			if err != nil {
				return err
			}
			fmt.Println(key)
			continue
		case "stats":
			txt, err := c.StatsText()
			if err != nil {
				return err
			}
			fmt.Print(txt)
			continue
		case "ping":
			if err := c.Flush(); err != nil {
				return err
			}
			continue
		}
		cmd, ok := table[verb]
		if !ok {
			if table == nil {
				return fmt.Errorf("object %q has no CLI data commands; drive it through updatec.Dial (protocol commands: statekey, stats, ping)", name)
			}
			return errUnknown(verb)
		}
		if i+cmd.n > len(cmds) {
			return fmt.Errorf("%s needs %d argument(s)", verb, cmd.n)
		}
		args := cmds[i : i+cmd.n]
		i += cmd.n
		if cmd.update != nil {
			u, err := cmd.update(args)
			if err != nil {
				return err
			}
			h.Update(u)
			continue
		}
		in, err := cmd.query(args)
		if err != nil {
			return err
		}
		out, err := runQuery(h, in)
		if err != nil {
			return err
		}
		fmt.Println(out)
	}
	// Updates are fire-and-forget on the wire; the barrier makes the
	// invocation durable (applied and forwarded) before exiting.
	if err := c.Flush(); err != nil {
		return err
	}
	return c.Err()
}

// runQuery issues one query, converting the handle layer's
// panic-on-failure contract (typed handles cannot return errors) into
// a CLI error.
func runQuery(h updatec.Handle, in updatec.QueryInput) (out string, err error) {
	defer func() {
		if r := recover(); r != nil {
			err = fmt.Errorf("query: %v", r)
		}
	}()
	return fmt.Sprint(h.Query(in)), nil
}
