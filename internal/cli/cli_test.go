package cli

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"os"
	"testing"
)

func TestExit(t *testing.T) {
	for _, tc := range []struct {
		name string
		err  error
		code int
		out  string
	}{
		{"success", nil, 0, ""},
		{"failure", errors.New("bad flag"), 1, "tool: bad flag\n"},
		{"cancelled", context.Canceled, 130, "tool: context canceled\n"},
		{"deadline", fmt.Errorf("sweep: %w", context.DeadlineExceeded), 130, "tool: sweep: context deadline exceeded\n"},
		{"interrupted", Interrupted(context.Canceled, "interrupted at %d/%d rows", 3, 16), 130, "tool: interrupted at 3/16 rows\n"},
		{"not interrupted", Interrupted(nil, "interrupted at %d/%d rows", 16, 16), 0, ""},
		{"other error kept", Interrupted(errors.New("solver failed"), "interrupted"), 1, "tool: solver failed\n"},
	} {
		t.Run(tc.name, func(t *testing.T) {
			var w bytes.Buffer
			if code := Exit(&w, "tool", tc.err); code != tc.code || w.String() != tc.out {
				t.Errorf("Exit = %d, %q; want %d, %q", code, w.String(), tc.code, tc.out)
			}
		})
	}
}

func TestWriteFile(t *testing.T) {
	dir := t.TempDir()
	path := dir + "/out.json"
	if err := WriteFile(path, func() ([]byte, error) { return []byte("{}"), nil }); err != nil {
		t.Fatal(err)
	}
	if raw, err := os.ReadFile(path); err != nil || string(raw) != "{}" {
		t.Fatalf("read back %q, %v", raw, err)
	}
	failed := errors.New("encode failed")
	if err := WriteFile(dir+"/never.json", func() ([]byte, error) { return nil, failed }); !errors.Is(err, failed) {
		t.Fatalf("encode error = %v, want %v", err, failed)
	}
	if _, err := os.Stat(dir + "/never.json"); !os.IsNotExist(err) {
		t.Fatal("a failed encode must not create the file")
	}
	if err := WriteFile(dir+"/missing/out.json", func() ([]byte, error) { return nil, nil }); err == nil {
		t.Fatal("writing into a missing directory must fail")
	}
}
