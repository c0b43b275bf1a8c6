package serve

import (
	"bytes"
	"context"
	"errors"
	"io"
	"os"
	"strings"
	"time"
)

// StreamRows sends the campaign's rows with index > after, in order, as
// canonical records (see sweep.FieldNames), following the dataset as the
// runner appends to it. It returns once the job is terminal and every
// durable row has been sent, or when ctx is canceled. The bytes sent are
// read from the dataset file itself — live spool or completed cache — so a
// cache-hit replay is byte-identical to the original live stream.
func (s *Server) StreamRows(ctx context.Context, id string, after int, send func(index int, fields []string) error) error {
	return s.streamRows(ctx, id, after, send, nil)
}

// streamRows is StreamRows with a caught-up hook: caughtUp, when not nil,
// runs each time the tailer has sent rows and then reached the current end
// of the dataset. The HTTP handler flushes there, so a live stream still
// delivers every row as soon as it is on disk while a cached replay goes
// out in full buffers.
func (s *Server) streamRows(ctx context.Context, id string, after int, send func(index int, fields []string) error, caughtUp func()) error {
	s.mu.Lock()
	e, ok := s.jobs[id]
	s.mu.Unlock()
	if !ok {
		return ErrNotFound
	}

	// Tailer accounting and the per-row stream instruments. With telemetry
	// disabled the handles are nil and the hot loop below keeps the plain
	// send — no timing, no wrapper, zero overhead. A slow reader blocks
	// either a send or the caught-up flush, so both are timed.
	if active, rows, stalls := s.tel.tailerHandles(id); active != nil {
		active.Add(1)
		defer active.Add(-1)
		inner := send
		send = func(index int, fields []string) error {
			start := time.Now()
			err := inner(index, fields)
			if time.Since(start) > tailerStallThreshold {
				stalls.Inc()
			}
			rows.Inc()
			return err
		}
		if flush := caughtUp; flush != nil {
			caughtUp = func() {
				start := time.Now()
				flush()
				if time.Since(start) > tailerStallThreshold {
					stalls.Inc()
				}
			}
		}
	}

	// Wait until the runner has prepared the spool (which may rewrite a
	// stale file from a previous daemon life) or the job is terminal.
	for {
		s.mu.Lock()
		ready := e.ready
		terminal := e.job.State.Terminal()
		s.mu.Unlock()
		if ready || terminal {
			break
		}
		ch := e.notify.Wait()
		s.mu.Lock()
		ready, terminal = e.ready, e.job.State.Terminal()
		s.mu.Unlock()
		if ready || terminal {
			break
		}
		select {
		case <-ctx.Done():
			return ctx.Err()
		case <-ch:
		}
	}

	f, err := openResult(s.store, e.job.Fingerprint)
	if errors.Is(err, os.ErrNotExist) {
		return nil // terminal with no dataset (failed before the first row)
	}
	if err != nil {
		return err
	}
	defer f.Close()

	// Tail the dataset: the runner flushes whole rows and broadcasts per
	// row, so complete lines only ever accumulate. The open fd survives
	// the completion rename into the cache.
	t := lineTailer{f: f}
	lineNo := 0
	drain := func() error {
		sent := false
		for {
			line, ok, err := t.next()
			if err != nil {
				return err
			}
			if !ok {
				if sent && caughtUp != nil {
					caughtUp()
				}
				return nil
			}
			lineNo++
			if lineNo == 1 {
				continue // header
			}
			idx := lineNo - 2
			if idx <= after {
				continue
			}
			if err := send(idx, strings.Split(line, ",")); err != nil {
				return err
			}
			sent = true
		}
	}
	for {
		if err := drain(); err != nil {
			return err
		}
		ch := e.notify.Wait()
		if err := drain(); err != nil {
			return err
		}
		s.mu.Lock()
		terminal := e.job.State.Terminal()
		s.mu.Unlock()
		if terminal {
			return drain()
		}
		select {
		case <-ctx.Done():
			return ctx.Err()
		case <-ch:
		}
	}
}

// openResult opens a campaign's dataset: the live spool while the job runs
// (or after a failure), the cache once promoted.
func openResult(store *Store, fp string) (file, error) {
	f, err := store.fs.Open(store.SpoolCSV(fp))
	if errors.Is(err, os.ErrNotExist) {
		return store.fs.Open(store.CachePath(fp))
	}
	return f, err
}

// lineTailer yields complete newline-terminated lines from a growing file.
// A partial trailing line is carried over until its newline arrives;
// *os.File keeps returning fresh data on reads past a previous EOF.
type lineTailer struct {
	f     file
	buf   []byte
	chunk []byte // read buffer, allocated on the first read and reused
}

// next returns the next complete line (without its newline); ok is false
// when no complete line is available yet.
func (t *lineTailer) next() (string, bool, error) {
	for {
		if i := bytes.IndexByte(t.buf, '\n'); i >= 0 {
			line := string(t.buf[:i])
			t.buf = t.buf[i+1:]
			return line, true, nil
		}
		if t.chunk == nil {
			t.chunk = make([]byte, 32*1024)
		}
		n, err := t.f.Read(t.chunk)
		if n > 0 {
			t.buf = append(t.buf, t.chunk[:n]...)
			continue
		}
		if err == nil || err == io.EOF {
			return "", false, nil
		}
		return "", false, err
	}
}
