package main

import (
	"bytes"
	"os"
	"path/filepath"
	"testing"
)

// TestFiguresGolden pins `uccheck -v -fig X` for every paper figure:
// verdicts, reason strings and witnesses, byte for byte.
func TestFiguresGolden(t *testing.T) {
	for _, fig := range []string{"1a", "1b", "1c", "1d", "2"} {
		t.Run(fig, func(t *testing.T) {
			var got bytes.Buffer
			if err := run(&got, fig, "", true); err != nil {
				t.Fatal(err)
			}
			want, err := os.ReadFile(filepath.Join("testdata", "fig"+fig+".golden"))
			if err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(got.Bytes(), want) {
				t.Fatalf("uccheck -v -fig %s differs from testdata:\n%s", fig, got.String())
			}
		})
	}
}

func TestUnknownFigure(t *testing.T) {
	if err := run(&bytes.Buffer{}, "9z", "", false); err == nil {
		t.Fatal("unknown figure must be an error")
	}
}
