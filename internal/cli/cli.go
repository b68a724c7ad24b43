// Package cli owns the exit convention the command-line tools share.
// SIGINT or SIGTERM cancels a run cooperatively; the command prints the
// results it finished and says how far it got. The process then exits
// 130, the shell's code for an interrupt. Any other error exits 1, and
// every error reaches stderr behind the command's name.
package cli

import (
	"context"
	"errors"
	"fmt"
	"io"
	"os"
	"os/signal"
	"syscall"
)

// Main runs body under a context that SIGINT and SIGTERM cancel, then
// exits the process with the code Exit assigns to body's error. After
// the first signal the handler is released, so a second one kills the
// process the default way.
func Main(name string, body func(ctx context.Context) error) {
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	context.AfterFunc(ctx, stop)
	os.Exit(Exit(os.Stderr, name, body(ctx)))
}

// Exit prints err to w as "<name>: <err>" and returns the exit code: 0
// for nil, 130 for a cancelled or expired context, 1 otherwise.
func Exit(w io.Writer, name string, err error) int {
	if err == nil {
		return 0
	}
	fmt.Fprintf(w, "%s: %v\n", name, err)
	if Canceled(err) {
		return 130
	}
	return 1
}

// Canceled reports whether err comes from a cancelled or expired context.
func Canceled(err error) bool {
	return errors.Is(err, context.Canceled) || errors.Is(err, context.DeadlineExceeded)
}

// Interrupted replaces a cancellation error with a report of how far the
// run got, formatted from format and args; it still exits 130. Any other
// err, nil included, is returned unchanged.
func Interrupted(err error, format string, args ...any) error {
	if !Canceled(err) {
		return err
	}
	return interrupted(fmt.Sprintf(format, args...))
}

// interrupted is a cancellation that carries its own message in place of
// "context canceled".
type interrupted string

func (e interrupted) Error() string      { return string(e) }
func (interrupted) Is(target error) bool { return target == context.Canceled }

// WriteFile writes the bytes encode produces to path. os.WriteFile
// closes the file and reports a failed close, so output that did not
// reach the disk whole is an error, never a success.
func WriteFile(path string, encode func() ([]byte, error)) error {
	raw, err := encode()
	if err != nil {
		return err
	}
	return os.WriteFile(path, raw, 0o644)
}
