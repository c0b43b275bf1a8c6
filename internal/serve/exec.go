package serve

import (
	"context"
	"fmt"

	"wsnlink/internal/scenario"
	"wsnlink/internal/stack"
	"wsnlink/internal/sweep"
)

// Executor produces a campaign's rows from somewhere other than this
// process's sweep engines — the distributed coordinator streams them from
// runner daemons. The server keeps everything else: the durable queue, the
// spool dataset, the checkpoint sidecar, progress accounting, row
// streaming and cache promotion all behave exactly as for a local run, so
// a campaign is free to move between local and distributed execution
// across restarts (the fingerprints and sidecars are shared).
type Executor interface {
	// ExecuteCampaign emits every row in [job.Resume, len(job.Configs))
	// through job.Emit, in order, honoring ctx. Returning nil before all
	// rows are emitted is an execution error the server surfaces.
	ExecuteCampaign(ctx context.Context, job *ExecJob) error
}

// ExecJob is one campaign handed to an Executor.
type ExecJob struct {
	// ID is the server's job identifier (log correlation).
	ID string
	// Spec is the normalized campaign spec, shard window included.
	Spec CampaignSpec
	// Scenario is the normalized scenario selection.
	Scenario scenario.Spec
	// Configs are the campaign's configurations (the shard window of the
	// materialized space, for sharded specs). Row i corresponds to
	// Configs[i]; its global index is Spec.ShardOffset+i.
	Configs []stack.Config
	// Fingerprint is the campaign identity hash the spec normalizes to.
	Fingerprint uint64
	// Resume is the durably-processed prefix length: the executor must
	// emit rows starting at index Resume.
	Resume int

	emit func(StreamedRow) error
}

// Emit delivers the next row. Rows must arrive in index order starting at
// Resume; each call encodes the row into the spool, flushes it, appends
// the checkpoint sidecar, and wakes row streamers — the same durability
// sequence the local engine follows, so a coordinator crash resumes from
// the last emitted row.
func (j *ExecJob) Emit(r StreamedRow) error { return j.emit(r) }

// executeRemote is the Executor half of executeRows: the spool is
// prepared exactly as for a local run, and the executor's rows go through
// write and then the checkpoint sidecar — the engine's durability order.
// done is the checkpointed prefix the spool was realigned to.
func (s *Server) executeRemote(ctx context.Context, c *campaign, resume bool, done int, write func(StreamedRow) error) error {
	ck, err := sweep.OpenCheckpointWriter(s.store.SpoolCheckpoint(c.fp), c.fingerprint, len(c.cfgs), resume)
	if err != nil {
		return err
	}
	if ck.Done() != done {
		ck.Close()
		return fmt.Errorf("serve: internal: checkpoint records %d rows, spool has %d", ck.Done(), done)
	}
	c.e.prog.Begin(len(c.cfgs), done)

	next := done
	job := &ExecJob{
		ID:          c.e.job.ID,
		Spec:        c.spec,
		Scenario:    c.scn,
		Configs:     c.cfgs,
		Fingerprint: c.fingerprint,
		Resume:      done,
		emit: func(r StreamedRow) error {
			if r.Index != next {
				return fmt.Errorf("serve: executor emitted row %d, want %d", r.Index, next)
			}
			if err := write(r); err != nil {
				return err
			}
			if err := ck.Append(next); err != nil {
				return err
			}
			next++
			c.e.prog.MarkDone()
			c.e.notify.Broadcast()
			return nil
		},
	}

	execErr := s.opts.Executor.ExecuteCampaign(ctx, job)
	closeErr := ck.Close()
	if execErr != nil {
		return execErr
	}
	if closeErr != nil {
		return closeErr
	}
	if next != len(c.cfgs) {
		return fmt.Errorf("serve: executor finished after %d of %d rows", next, len(c.cfgs))
	}
	return nil
}
