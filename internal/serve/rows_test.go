package serve

import (
	"context"
	"fmt"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"sync/atomic"
	"testing"
	"time"

	"wsnlink/internal/obs"
	"wsnlink/internal/sweep"
)

// flushCounter is a ResponseWriter that counts the handler's flushes.
type flushCounter struct {
	*httptest.ResponseRecorder
	flushes int
}

func (f *flushCounter) Flush() {
	f.flushes++
	f.ResponseRecorder.Flush()
}

// serveRows runs the rows handler for job id into w.
func serveRows(s *Server, w http.ResponseWriter, id string) {
	s.Handler().ServeHTTP(w, httptest.NewRequest(http.MethodGet, "/v1/campaigns/"+id+"/rows", nil))
}

// TestRowsHandlerFlushesPerDrainPass pins the flush policy on a cached
// campaign: rows go out in full buffers and the handler flushes once per
// drain pass of the tailer, not once per row. The bytes are unchanged.
func TestRowsHandlerFlushesPerDrainPass(t *testing.T) {
	s := openServer(t, t.TempDir(), Options{Registry: obs.NewRegistry()})
	spec := CampaignSpec{
		Space:    SpaceSpec{DistancesM: []float64{35}, PayloadsBytes: []int{110}},
		Packets:  20,
		BaseSeed: 5,
	}
	st, err := s.Submit(spec)
	if err != nil {
		t.Fatalf("Submit: %v", err)
	}
	if st.Configs < 960 {
		t.Fatalf("campaign has %d configs, want at least 960", st.Configs)
	}
	waitFor(t, "job done", func() bool { return mustStatus(t, s, st.ID).State == StateDone })

	var want []byte
	ctx := context.Background()
	if err := s.StreamRows(ctx, st.ID, -1, func(index int, fields []string) error {
		want = appendRowJSON(want, index, fields)
		return nil
	}); err != nil {
		t.Fatalf("StreamRows: %v", err)
	}

	w := &flushCounter{ResponseRecorder: httptest.NewRecorder()}
	serveRows(s, w, st.ID)
	if got := w.Body.String(); got != string(want) {
		t.Fatalf("rows body differs from the canonical NDJSON (%d vs %d bytes)", len(got), len(want))
	}
	if w.flushes >= 10 {
		t.Fatalf("%d rows took %d flushes, want fewer than 10", st.Configs, w.flushes)
	}
}

// steppedExecutor emits a campaign's rows one at a time and waits, after
// each, until the client reports holding it.
type steppedExecutor struct {
	emitted atomic.Int64
	held    chan int
}

func (x *steppedExecutor) ExecuteCampaign(ctx context.Context, job *ExecJob) error {
	rows, err := sweep.RunConfigs(ctx, job.Configs, job.Spec.options())
	if err != nil {
		return err
	}
	for i := job.Resume; i < len(rows); i++ {
		// Count the row before emitting it: the client can receive it
		// before Emit returns.
		x.emitted.Store(int64(i + 1))
		if err := job.Emit(StreamedRow{Index: i, Row: rows[i]}); err != nil {
			return err
		}
		select {
		case <-x.held:
		case <-ctx.Done():
			return ctx.Err()
		case <-time.After(10 * time.Second):
			return fmt.Errorf("row %d never reached the client", i)
		}
	}
	return nil
}

// TestLiveStreamDeliversEachRowBeforeTheNext: on a running campaign, row k
// reaches the client before row k+1 is produced, so batching flushes does
// not hold back a live stream.
func TestLiveStreamDeliversEachRowBeforeTheNext(t *testing.T) {
	// Buffered past the campaign's 4 rows, so the client never blocks on
	// an executor that already gave up.
	x := &steppedExecutor{held: make(chan int, 64)}
	s := openServer(t, t.TempDir(), Options{Executor: x})
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	rows := 0
	st, err := fastClient(ts.URL).Run(ctx, quickSpec(), func(r StreamedRow) error {
		if got := x.emitted.Load(); got != int64(r.Index+1) {
			return fmt.Errorf("row %d arrived after %d rows were produced", r.Index, got)
		}
		rows++
		x.held <- r.Index
		return nil
	})
	if err != nil {
		t.Fatalf("Run: %v", err)
	}
	if rows != st.Configs {
		t.Fatalf("streamed %d rows, want %d", rows, st.Configs)
	}
}

// TestLineTailerReusesReadBuffer: a tailer keeps one read buffer, so the
// EOF read that ends every drain pass allocates nothing.
func TestLineTailerReusesReadBuffer(t *testing.T) {
	if raceEnabled {
		t.Skip("race instrumentation allocates; alloc pin runs in regular builds")
	}
	path := filepath.Join(t.TempDir(), "rows.csv")
	if err := os.WriteFile(path, []byte("a,b\n1,2\n3,4\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	f, err := os.Open(path)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	tl := lineTailer{f: f}
	var lines []string
	for {
		line, ok, err := tl.next()
		if err != nil {
			t.Fatal(err)
		}
		if !ok {
			break
		}
		lines = append(lines, line)
	}
	if fmt.Sprint(lines) != "[a,b 1,2 3,4]" {
		t.Fatalf("lines = %q", lines)
	}
	if got := testing.AllocsPerRun(100, func() {
		if _, ok, err := tl.next(); ok || err != nil {
			t.Fatalf("read past EOF: ok=%v err=%v", ok, err)
		}
	}); got != 0 {
		t.Fatalf("EOF read allocates %v times, want 0", got)
	}
}
