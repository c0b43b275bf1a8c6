package main

import (
	"bytes"
	"context"
	"fmt"

	"wsnlink/internal/serve"
	"wsnlink/internal/sweep"
)

// The correctness gate. Every campaign is checked as its rows arrive: row
// indices must run 0, 1, 2, ... without a gap and the count must equal the
// campaign's configuration count (rowChecker). A seed-chosen sample of
// campaigns is also compared byte for byte, in the canonical CSV encoding,
// against a reference computed independently of the service path under
// test (compareRows). A campaign failing either check counts as failed.

// rowChecker follows one campaign's row stream.
type rowChecker struct {
	want, next int
}

// check accepts the next streamed row index.
func (c *rowChecker) check(index int) error {
	if index != c.next {
		return fmt.Errorf("row index %d arrived where %d was due", index, c.next)
	}
	c.next++
	return nil
}

// done reports whether the whole campaign arrived.
func (c *rowChecker) done() error {
	if c.next != c.want {
		return fmt.Errorf("received %d rows, campaign has %d", c.next, c.want)
	}
	return nil
}

// encodeRows renders rows in the dataset's canonical CSV encoding, without
// the header.
func encodeRows(rows []sweep.Row) ([]byte, error) {
	var buf bytes.Buffer
	enc := sweep.NewEncoder(&buf)
	for _, r := range rows {
		if err := enc.Encode(r); err != nil {
			return nil, err
		}
	}
	if err := enc.Flush(); err != nil {
		return nil, err
	}
	return buf.Bytes(), nil
}

// compareRows checks rows against reference CSV bytes and names the first
// row that differs.
func compareRows(got []sweep.Row, want []byte) error {
	enc, err := encodeRows(got)
	if err != nil {
		return err
	}
	return compareEncoded(enc, want)
}

// compareEncoded compares two encoded datasets and names the first row that
// differs.
func compareEncoded(got, want []byte) error {
	if bytes.Equal(got, want) {
		return nil
	}
	gl, wl := bytes.SplitAfter(got, []byte("\n")), bytes.SplitAfter(want, []byte("\n"))
	for i := 0; i < len(gl) && i < len(wl); i++ {
		if !bytes.Equal(gl[i], wl[i]) {
			return fmt.Errorf("row %d differs from the reference: got %q, want %q",
				i, bytes.TrimSpace(gl[i]), bytes.TrimSpace(wl[i]))
		}
	}
	return fmt.Errorf("%d encoded rows, reference has %d", len(gl)-1, len(wl)-1)
}

// localReference runs the campaign in this process through the sweep
// engine alone and encodes it with sweep.Encoder: the bytes a daemon must
// reproduce.
func localReference(ctx context.Context, spec serve.CampaignSpec) ([]byte, error) {
	var buf bytes.Buffer
	enc := sweep.NewEncoder(&buf)
	err := sweep.StreamConfigs(ctx, spec.Space.Space().All(), sweep.RunOptions{
		Packets:  spec.Packets,
		BaseSeed: spec.BaseSeed,
		CRN:      spec.CRN,
	}, enc.Encode)
	if err != nil {
		return nil, fmt.Errorf("reference run: %w", err)
	}
	if err := enc.Flush(); err != nil {
		return nil, err
	}
	return buf.Bytes(), nil
}

// daemonReference runs the campaign on a single daemon over HTTP and
// encodes the rows it streams: the reference a coordinator must match.
func daemonReference(ctx context.Context, c *serve.Client, spec serve.CampaignSpec) ([]byte, error) {
	var rows []sweep.Row
	if _, err := c.Run(ctx, spec, func(r serve.StreamedRow) error {
		rows = append(rows, r.Row)
		return nil
	}); err != nil {
		return nil, fmt.Errorf("single-daemon reference: %w", err)
	}
	return encodeRows(rows)
}
