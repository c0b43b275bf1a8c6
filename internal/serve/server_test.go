package serve

import (
	"context"
	"errors"
	"strings"
	"testing"
	"time"

	"wsnlink/internal/obs"
	"wsnlink/internal/sweep"
)

// quickSpec is a small campaign (4 configurations) that finishes in
// milliseconds — for end-state tests.
func quickSpec() CampaignSpec {
	return CampaignSpec{
		Space: SpaceSpec{
			DistancesM:    []float64{35},
			TxPowers:      []int{31},
			MaxTries:      []int{1, 3},
			RetryDelaysS:  []float64{0.03},
			QueueCaps:     []int{1},
			PktIntervalsS: []float64{0.05},
			PayloadsBytes: []int{20, 110},
		},
		Packets:  60,
		BaseSeed: 3,
	}
}

// slowSpec is a single-worker campaign (24 configurations, heavy packet
// counts) that runs long enough to cancel, drain, or deadline mid-flight.
func slowSpec() CampaignSpec {
	return CampaignSpec{
		Space: SpaceSpec{
			DistancesM:    []float64{35},
			TxPowers:      []int{31},
			MaxTries:      []int{1, 3, 8},
			RetryDelaysS:  []float64{0.03},
			QueueCaps:     []int{1, 30},
			PktIntervalsS: []float64{0.05, 0.2},
			PayloadsBytes: []int{20, 110},
		},
		Packets:  20000,
		BaseSeed: 7,
		Workers:  1,
	}
}

// refLines runs the campaign directly through the sweep engine and returns
// the canonical records the service must reproduce.
func refLines(t *testing.T, spec CampaignSpec) []string {
	t.Helper()
	norm, sp, err := spec.normalize(Limits{})
	if err != nil {
		t.Fatalf("normalize: %v", err)
	}
	rows, err := sweep.RunConfigs(context.Background(), sp.All(), norm.options())
	if err != nil {
		t.Fatalf("RunConfigs: %v", err)
	}
	out := make([]string, len(rows))
	for i, r := range rows {
		out[i] = strings.Join(r.Fields(), ",")
	}
	return out
}

func openServer(t *testing.T, dir string, opts Options) *Server {
	t.Helper()
	s, err := Open(dir, opts)
	if err != nil {
		t.Fatalf("Open: %v", err)
	}
	t.Cleanup(func() {
		ctx, cancel := context.WithTimeout(context.Background(), 20*time.Second)
		defer cancel()
		s.Drain(ctx) //nolint:errcheck // best-effort test cleanup
	})
	return s
}

func waitFor(t *testing.T, msg string, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(30 * time.Second)
	for time.Now().Before(deadline) {
		if cond() {
			return
		}
		time.Sleep(2 * time.Millisecond)
	}
	t.Fatalf("timed out waiting for %s", msg)
}

// pauseAtRow arms s to hold its campaign's spool writer just before row k
// until the job's context is canceled, and returns a wait that blocks until
// the writer is held there. Interruption tests cancel or drain while it is
// held, so the interruption lands at an exact mid-campaign row instead of
// racing the simulator; the cancel itself releases the writer. Only the
// first arrival at row k is held. Arm it before the first Submit.
func pauseAtRow(t *testing.T, s *Server, k int) (wait func()) {
	reached := make(chan struct{})
	held := false // only the spool writer reads or writes it
	s.beforeSpoolRow = func(ctx context.Context, row int) {
		if row != k || held {
			return
		}
		held = true
		close(reached)
		<-ctx.Done()
	}
	return func() {
		t.Helper()
		select {
		case <-reached:
		case <-time.After(30 * time.Second):
			t.Fatalf("timed out waiting for the spool writer to reach row %d", k)
		}
	}
}

func mustStatus(t *testing.T, s *Server, id string) JobStatus {
	t.Helper()
	st, err := s.Status(id)
	if err != nil {
		t.Fatalf("Status(%s): %v", id, err)
	}
	return st
}

// collectLines streams a job to the end (terminal + fully drained) and
// returns its canonical records.
func collectLines(t *testing.T, s *Server, id string, after int) []string {
	t.Helper()
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	var lines []string
	next := after + 1
	err := s.StreamRows(ctx, id, after, func(idx int, fields []string) error {
		if idx != next {
			t.Fatalf("row index %d out of order, want %d", idx, next)
		}
		next++
		lines = append(lines, strings.Join(fields, ","))
		return nil
	})
	if err != nil {
		t.Fatalf("StreamRows(%s): %v", id, err)
	}
	return lines
}

func TestSubmitStreamCompletes(t *testing.T) {
	s := openServer(t, t.TempDir(), Options{})
	spec := quickSpec()
	st, err := s.Submit(spec)
	if err != nil {
		t.Fatalf("Submit: %v", err)
	}
	if st.CacheHit {
		t.Fatal("fresh campaign must not be a cache hit")
	}
	if st.Total != 4 {
		t.Fatalf("Total = %d, want 4", st.Total)
	}

	// Stream live while the job runs, then again from the cache: both must
	// equal the engine's direct output, record for record.
	want := refLines(t, spec)
	live := collectLines(t, s, st.ID, -1)
	if len(live) != len(want) {
		t.Fatalf("live stream: %d rows, want %d", len(live), len(want))
	}
	for i := range want {
		if live[i] != want[i] {
			t.Fatalf("live row %d:\n got %s\nwant %s", i, live[i], want[i])
		}
	}

	fin := mustStatus(t, s, st.ID)
	if fin.State != StateDone || fin.Done != fin.Total {
		t.Fatalf("job not done: %+v", fin.Job)
	}
	if fin.Metrics == nil || fin.Metrics.RowsEmitted != fin.Total {
		t.Fatalf("job metrics missing or wrong: %+v", fin.Metrics)
	}
	if !s.Store().HasCache(fin.Fingerprint) {
		t.Fatal("completed dataset was not promoted into the cache")
	}

	cached := collectLines(t, s, st.ID, -1)
	for i := range want {
		if cached[i] != want[i] {
			t.Fatalf("cached row %d:\n got %s\nwant %s", i, cached[i], want[i])
		}
	}
	// Index-based resume: ask for everything after len-3.
	tail := collectLines(t, s, st.ID, len(want)-3)
	if len(tail) != 2 || tail[0] != want[len(want)-2] {
		t.Fatalf("resume tail = %d rows, want the final 2", len(tail))
	}

	stats := s.Stats()
	if stats.Submitted != 1 || stats.Completed != 1 || stats.CacheMisses != 1 || stats.CacheHits != 0 {
		t.Fatalf("stats = %+v", stats)
	}
}

func TestResubmitIsCacheHit(t *testing.T) {
	s := openServer(t, t.TempDir(), Options{})
	spec := quickSpec()
	first, err := s.Submit(spec)
	if err != nil {
		t.Fatalf("Submit: %v", err)
	}
	want := collectLines(t, s, first.ID, -1)

	second, err := s.Submit(spec)
	if err != nil {
		t.Fatalf("resubmit: %v", err)
	}
	if !second.CacheHit || second.State != StateDone {
		t.Fatalf("resubmission must complete as a cache hit, got %+v", second.Job)
	}
	if second.StartedMs != 0 {
		t.Fatal("cache hit must not have run the simulator")
	}
	if second.Fingerprint != first.Fingerprint {
		t.Fatalf("fingerprint drift: %s vs %s", second.Fingerprint, first.Fingerprint)
	}
	got := collectLines(t, s, second.ID, -1)
	if len(got) != len(want) {
		t.Fatalf("cache replay: %d rows, want %d", len(got), len(want))
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("cache replay row %d differs:\n got %s\nwant %s", i, got[i], want[i])
		}
	}
	stats := s.Stats()
	if stats.CacheHits != 1 || stats.CacheMisses != 1 || stats.Completed != 2 {
		t.Fatalf("stats = %+v", stats)
	}
}

func TestDuplicateInFlightIsSingleFlight(t *testing.T) {
	s := openServer(t, t.TempDir(), Options{Jobs: 2})
	spec := slowSpec()
	a, err := s.Submit(spec)
	if err != nil {
		t.Fatalf("Submit: %v", err)
	}
	b, err := s.Submit(spec)
	if err != nil {
		t.Fatalf("Submit duplicate: %v", err)
	}
	waitFor(t, "first job running", func() bool { return mustStatus(t, s, a.ID).State == StateRunning })
	// Two job slots are free, but the duplicate must not burn one: it waits
	// for the original and is answered from the cache.
	if st := mustStatus(t, s, b.ID); st.State != StateQueued {
		t.Fatalf("duplicate state = %q, want queued while the original runs", st.State)
	}
	waitFor(t, "both jobs done", func() bool {
		return mustStatus(t, s, a.ID).State == StateDone && mustStatus(t, s, b.ID).State == StateDone
	})
	if st := mustStatus(t, s, b.ID); !st.CacheHit {
		t.Fatal("duplicate must resolve as a cache hit")
	}
	stats := s.Stats()
	if stats.CacheMisses != 1 || stats.CacheHits != 1 {
		t.Fatalf("stats = %+v, want exactly one simulation", stats)
	}
}

func TestCancelRunningKeepsCheckpointAndResumes(t *testing.T) {
	s := openServer(t, t.TempDir(), Options{})
	spec := slowSpec()
	atRow2 := pauseAtRow(t, s, 2)
	st, err := s.Submit(spec)
	if err != nil {
		t.Fatalf("Submit: %v", err)
	}
	atRow2()
	if _, err := s.Cancel(st.ID); err != nil {
		t.Fatalf("Cancel: %v", err)
	}
	waitFor(t, "job canceled", func() bool { return mustStatus(t, s, st.ID).State == StateCanceled })
	fin := mustStatus(t, s, st.ID)
	if fin.Done >= fin.Total {
		t.Fatalf("job finished (%d/%d) before cancel landed; grow slowSpec", fin.Done, fin.Total)
	}

	// The interrupted prefix must be durable and tied to the campaign.
	ck, err := sweep.LoadCheckpoint(s.Store().SpoolCheckpoint(st.Fingerprint))
	if err != nil {
		t.Fatalf("LoadCheckpoint after cancel: %v", err)
	}
	if obs.FormatFingerprint(ck.Fingerprint) != st.Fingerprint {
		t.Fatalf("checkpoint fingerprint %016x does not match job %s", ck.Fingerprint, st.Fingerprint)
	}
	if ck.Done == 0 {
		t.Fatal("cancel left no checkpointed prefix")
	}

	// Resubmitting the identical spec resumes from that checkpoint and the
	// final dataset is byte-identical to an uninterrupted run.
	re, err := s.Submit(spec)
	if err != nil {
		t.Fatalf("resubmit: %v", err)
	}
	waitFor(t, "resumed job done", func() bool { return mustStatus(t, s, re.ID).State == StateDone })
	if got := mustStatus(t, s, re.ID); got.ResumedFrom == 0 {
		t.Fatalf("resubmission did not resume from the checkpoint: %+v", got.Job)
	}
	want := refLines(t, spec)
	got := collectLines(t, s, re.ID, -1)
	if len(got) != len(want) {
		t.Fatalf("resumed dataset: %d rows, want %d", len(got), len(want))
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("resumed row %d differs:\n got %s\nwant %s", i, got[i], want[i])
		}
	}
}

func TestDrainRequeuesAndRestartResumes(t *testing.T) {
	dir := t.TempDir()
	spec := slowSpec()

	s1, err := Open(dir, Options{})
	if err != nil {
		t.Fatalf("Open: %v", err)
	}
	atRow2 := pauseAtRow(t, s1, 2)
	st, err := s1.Submit(spec)
	if err != nil {
		t.Fatalf("Submit: %v", err)
	}
	atRow2()
	ctx, cancel := context.WithTimeout(context.Background(), 20*time.Second)
	defer cancel()
	if err := s1.Drain(ctx); err != nil {
		t.Fatalf("Drain: %v", err)
	}
	if _, err := s1.Submit(spec); !errors.Is(err, ErrDraining) {
		t.Fatalf("Submit after Drain = %v, want ErrDraining", err)
	}

	// The job record went back to queued on disk, checkpoint in the spool.
	jobs, err := s1.Store().LoadJobs()
	if err != nil || len(jobs) != 1 {
		t.Fatalf("LoadJobs after drain: %v (%d jobs)", err, len(jobs))
	}
	if jobs[0].State != StateQueued {
		t.Fatalf("drained job state = %q, want queued", jobs[0].State)
	}
	// Simulate a daemon that died without draining: the record says
	// "running"; Open must requeue and resume it all the same.
	jobs[0].State = StateRunning
	if err := s1.Store().PutJob(jobs[0]); err != nil {
		t.Fatalf("PutJob: %v", err)
	}

	s2 := openServer(t, dir, Options{})
	waitFor(t, "job done after restart", func() bool { return mustStatus(t, s2, st.ID).State == StateDone })
	fin := mustStatus(t, s2, st.ID)
	if fin.ResumedFrom == 0 {
		t.Fatalf("restart did not resume from the checkpoint: %+v", fin.Job)
	}
	want := refLines(t, spec)
	got := collectLines(t, s2, st.ID, -1)
	if len(got) != len(want) {
		t.Fatalf("dataset after restart: %d rows, want %d", len(got), len(want))
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("row %d differs after restart:\n got %s\nwant %s", i, got[i], want[i])
		}
	}
}

func TestDeadlineFailsButKeepsCheckpoint(t *testing.T) {
	s := openServer(t, t.TempDir(), Options{})
	spec := slowSpec()
	spec.DeadlineS = 0.05
	st, err := s.Submit(spec)
	if err != nil {
		t.Fatalf("Submit: %v", err)
	}
	waitFor(t, "deadline to expire the job", func() bool { return mustStatus(t, s, st.ID).State == StateFailed })
	fin := mustStatus(t, s, st.ID)
	if !strings.Contains(fin.Error, "deadline") {
		t.Fatalf("failure reason %q does not mention the deadline", fin.Error)
	}
	if s.Stats().Failed != 1 {
		t.Fatalf("stats = %+v", s.Stats())
	}

	// Identical campaign without the deadline: must resume, not restart —
	// the deadline is an execution knob, outside the fingerprint.
	spec.DeadlineS = 0
	re, err := s.Submit(spec)
	if err != nil {
		t.Fatalf("resubmit: %v", err)
	}
	if re.Fingerprint != fin.Fingerprint {
		t.Fatalf("fingerprint changed with the deadline: %s vs %s", re.Fingerprint, fin.Fingerprint)
	}
	waitFor(t, "resumed job done", func() bool { return mustStatus(t, s, re.ID).State == StateDone })
}

func TestQueueFullAndCancelQueued(t *testing.T) {
	s := openServer(t, t.TempDir(), Options{MaxQueue: 2})
	if _, err := s.Submit(slowSpec()); err != nil {
		t.Fatalf("Submit: %v", err)
	}
	spec2 := slowSpec()
	spec2.BaseSeed = 99 // distinct campaign, waits for the single job slot
	queued, err := s.Submit(spec2)
	if err != nil {
		t.Fatalf("Submit second: %v", err)
	}
	spec3 := slowSpec()
	spec3.BaseSeed = 100
	if _, err := s.Submit(spec3); !errors.Is(err, ErrQueueFull) {
		t.Fatalf("Submit beyond MaxQueue = %v, want ErrQueueFull", err)
	}

	// Canceling the queued job frees its slot immediately.
	cst, err := s.Cancel(queued.ID)
	if err != nil {
		t.Fatalf("Cancel queued: %v", err)
	}
	if cst.State != StateCanceled {
		t.Fatalf("queued job state after cancel = %q", cst.State)
	}
	if _, err := s.Submit(spec3); err != nil {
		t.Fatalf("Submit after freeing a slot: %v", err)
	}
}

func TestSubmitValidationAndUnknownJob(t *testing.T) {
	s := openServer(t, t.TempDir(), Options{Limits: Limits{MaxConfigs: 100}})
	if _, err := s.Submit(CampaignSpec{}); err == nil {
		t.Fatal("full default space must exceed MaxConfigs=100")
	}
	spec := quickSpec()
	spec.Packets = -4
	if _, err := s.Submit(spec); err == nil {
		t.Fatal("negative packets must be rejected")
	}
	if _, err := s.Status("c999999"); !errors.Is(err, ErrNotFound) {
		t.Fatal("Status on unknown job must be ErrNotFound")
	}
	if _, err := s.Cancel("c999999"); !errors.Is(err, ErrNotFound) {
		t.Fatal("Cancel on unknown job must be ErrNotFound")
	}
	if err := s.StreamRows(context.Background(), "c999999", -1, nil); !errors.Is(err, ErrNotFound) {
		t.Fatal("StreamRows on unknown job must be ErrNotFound")
	}
}
