package spec

import (
	"fmt"
	"sort"
)

// builtin holds the named UQ-ADT constructors available to the CLI
// tools and the history JSON codec.
var builtin = map[string]func() UQADT{
	"set":        func() UQADT { return Set() },
	"gset":       func() UQADT { return GSet() },
	"register":   func() UQADT { return Register("") },
	"counter":    func() UQADT { return Counter() },
	"countermap": func() UQADT { return CounterMap() },
	"memory":     func() UQADT { return Memory("") },
	"queue":      func() UQADT { return Queue() },
	"stack":      func() UQADT { return Stack() },
	"log":        func() UQADT { return Log() },
	"graph":      func() UQADT { return Graph() },
	"sequence":   func() UQADT { return Sequence() },
}

// ByName returns the built-in UQ-ADT with the given name.
func ByName(name string) (UQADT, error) {
	ctor, ok := builtin[name]
	if !ok {
		return nil, fmt.Errorf("spec: unknown data type %q (known: %v)", name, Names())
	}
	return ctor(), nil
}

// Names lists the built-in UQ-ADT names in sorted order.
func Names() []string {
	names := make([]string, 0, len(builtin))
	for n := range builtin {
		names = append(names, n)
	}
	sort.Strings(names)
	return names
}
