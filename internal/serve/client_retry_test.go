package serve

import (
	"context"
	"encoding/json"
	"math"
	"net/http"
	"net/http/httptest"
	"strconv"
	"sync"
	"testing"
	"time"

	"wsnlink/internal/sweep"
)

// fastClient returns a client for url with the default retry policy but no
// real backoff sleeps, so flaky-server tests stay fast.
func fastClient(url string) *Client {
	c := NewClient(url)
	c.jitter = func(time.Duration) time.Duration { return time.Microsecond }
	return c
}

// flakyServer answers 503 to the first fail requests per method+path, then
// delegates; it counts every request it sees.
type flakyServer struct {
	mu    sync.Mutex
	calls map[string]int
	fail  int
	next  http.Handler
}

func (f *flakyServer) count(r *http.Request) int {
	f.mu.Lock()
	defer f.mu.Unlock()
	if f.calls == nil {
		f.calls = make(map[string]int)
	}
	key := r.Method + " " + r.URL.Path
	f.calls[key]++
	return f.calls[key]
}

func (f *flakyServer) seen(key string) int {
	f.mu.Lock()
	defer f.mu.Unlock()
	return f.calls[key]
}

func (f *flakyServer) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	if f.count(r) <= f.fail {
		writeError(w, http.StatusServiceUnavailable, ErrDraining)
		return
	}
	f.next.ServeHTTP(w, r)
}

func TestClientRetriesIdempotentCalls(t *testing.T) {
	okStatus := http.HandlerFunc(func(w http.ResponseWriter, _ *http.Request) {
		writeJSON(w, http.StatusOK, JobStatus{Job: Job{ID: "c000001", State: StateDone}})
	})

	t.Run("GET recovers within budget", func(t *testing.T) {
		fs := &flakyServer{fail: 2, next: okStatus}
		ts := httptest.NewServer(fs)
		defer ts.Close()
		st, err := fastClient(ts.URL).Status(context.Background(), "c000001")
		if err != nil {
			t.Fatalf("Status should survive 2 failures: %v", err)
		}
		if st.ID != "c000001" {
			t.Fatalf("status = %+v", st)
		}
		if got := fs.seen("GET /v1/campaigns/c000001"); got != 3 {
			t.Fatalf("server saw %d attempts, want 3", got)
		}
	})

	t.Run("budget exhaustion fails", func(t *testing.T) {
		fs := &flakyServer{fail: 100, next: okStatus}
		ts := httptest.NewServer(fs)
		defer ts.Close()
		c := fastClient(ts.URL)
		if _, err := c.Status(context.Background(), "c000001"); err == nil {
			t.Fatal("Status should fail once the budget is spent")
		}
		if got := fs.seen("GET /v1/campaigns/c000001"); got != c.MaxRetries+1 {
			t.Fatalf("server saw %d attempts, want %d", got, c.MaxRetries+1)
		}
	})

	t.Run("4xx is not retried", func(t *testing.T) {
		fs := &flakyServer{next: http.HandlerFunc(func(w http.ResponseWriter, _ *http.Request) {
			writeError(w, http.StatusNotFound, ErrNotFound)
		})}
		ts := httptest.NewServer(fs)
		defer ts.Close()
		if _, err := fastClient(ts.URL).Status(context.Background(), "c000001"); err == nil {
			t.Fatal("want 404 error")
		}
		if got := fs.seen("GET /v1/campaigns/c000001"); got != 1 {
			t.Fatalf("server saw %d attempts for a 404, want 1", got)
		}
	})

	t.Run("POST is never retried", func(t *testing.T) {
		fs := &flakyServer{fail: 100, next: okStatus}
		ts := httptest.NewServer(fs)
		defer ts.Close()
		if _, err := fastClient(ts.URL).Submit(context.Background(), quickSpec()); err == nil {
			t.Fatal("want submit error")
		}
		if got := fs.seen("POST /v1/campaigns"); got != 1 {
			t.Fatalf("server saw %d submit attempts, want 1 (submits may enqueue)", got)
		}
	})
}

// TestClientStreamResumesAfterDrops serves a row stream that drops the
// connection every few rows and checks StreamRows reassembles the exact
// sequence through cursor-based reconnects, refilling its budget on
// progress so a long flaky stream outlives MaxRetries total drops.
func TestClientStreamResumesAfterDrops(t *testing.T) {
	const total = 20
	zero := make([]string, len(sweep.FieldNames()))
	for i := range zero {
		zero[i] = "0"
	}
	var mu sync.Mutex
	var cursors []int
	mux := http.NewServeMux()
	mux.HandleFunc("GET /v1/campaigns/c000001/rows", func(w http.ResponseWriter, r *http.Request) {
		after, err := strconv.Atoi(r.Header.Get(LastRowIndexHeader))
		if err != nil {
			t.Errorf("bad resume header: %v", err)
			after = -1
		}
		mu.Lock()
		cursors = append(cursors, after)
		mu.Unlock()
		fl := w.(http.Flusher)
		w.Header().Set("Content-Type", "application/x-ndjson")
		w.WriteHeader(http.StatusOK)
		fl.Flush()
		var buf []byte
		for i := after + 1; i < total; i++ {
			buf = appendRowJSON(buf[:0], i, zero)
			w.Write(buf) //nolint:errcheck
			fl.Flush()
			// Drop the connection mid-body every 3 rows so the client must
			// reconnect more than MaxRetries times overall.
			if i < total-1 && i%3 == 2 {
				panic(http.ErrAbortHandler)
			}
		}
	})
	ts := httptest.NewServer(mux)
	defer ts.Close()

	var got []int
	last, err := fastClient(ts.URL).StreamRows(context.Background(), "c000001", -1,
		func(r StreamedRow) error { got = append(got, r.Index); return nil })
	if err != nil {
		t.Fatalf("StreamRows: %v", err)
	}
	if last != total-1 {
		t.Fatalf("last = %d, want %d", last, total-1)
	}
	for i, idx := range got {
		if idx != i {
			t.Fatalf("row %d has index %d: duplicates or gaps across reconnects", i, idx)
		}
	}
	if len(got) != total {
		t.Fatalf("yielded %d rows, want %d", len(got), total)
	}
	mu.Lock()
	defer mu.Unlock()
	if len(cursors) < 3 {
		t.Fatalf("server saw %d connects, want several (drops every 3 rows): %v", len(cursors), cursors)
	}
	for i := 1; i < len(cursors); i++ {
		if cursors[i] <= cursors[i-1] {
			t.Fatalf("resume cursor did not advance: %v", cursors)
		}
	}
}

// TestClientStreamResumesAfterTornLine: a daemon that dies mid-line leaves
// an unterminated tail; the client must treat it as a dropped connection
// and resume after the last whole row, yielding every row exactly once.
func TestClientStreamResumesAfterTornLine(t *testing.T) {
	const total = 5
	zero := make([]string, len(sweep.FieldNames()))
	for i := range zero {
		zero[i] = "0"
	}
	var mu sync.Mutex
	var cursors []int
	mux := http.NewServeMux()
	mux.HandleFunc("GET /v1/campaigns/c000001/rows", func(w http.ResponseWriter, r *http.Request) {
		after, err := strconv.Atoi(r.Header.Get(LastRowIndexHeader))
		if err != nil {
			t.Errorf("bad resume header: %v", err)
			after = -1
		}
		mu.Lock()
		cursors = append(cursors, after)
		first := len(cursors) == 1
		mu.Unlock()
		var body []byte
		var ends []int
		for i := after + 1; i < total; i++ {
			body = appendRowJSON(body, i, zero)
			ends = append(ends, len(body))
		}
		w.Header().Set("Content-Type", "application/x-ndjson")
		w.WriteHeader(http.StatusOK)
		if !first {
			w.Write(body) //nolint:errcheck
			return
		}
		// Two and a half rows, then the daemon dies mid-line.
		w.Write(body[:ends[1]+(ends[2]-ends[1])/2]) //nolint:errcheck
		w.(http.Flusher).Flush()
		conn, _, err := w.(http.Hijacker).Hijack()
		if err != nil {
			t.Errorf("hijack: %v", err)
			return
		}
		conn.Close()
	})
	ts := httptest.NewServer(mux)
	defer ts.Close()

	var got []int
	last, err := fastClient(ts.URL).StreamRows(context.Background(), "c000001", -1,
		func(r StreamedRow) error { got = append(got, r.Index); return nil })
	if err != nil {
		t.Fatalf("StreamRows gave up on a torn line: %v", err)
	}
	if last != total-1 || len(got) != total {
		t.Fatalf("last = %d after %d rows, want %d after %d", last, len(got), total-1, total)
	}
	for i, idx := range got {
		if idx != i {
			t.Fatalf("row %d has index %d: duplicates or gaps across the reconnect", i, idx)
		}
	}
	mu.Lock()
	defer mu.Unlock()
	if len(cursors) != 2 || cursors[1] != 1 {
		t.Fatalf("resume cursors = %v, want [-1 1]", cursors)
	}
}

// TestClientStreamYieldErrorNotRetried pins that a caller's yield error
// aborts the stream immediately — it must not look like a flaky server.
func TestClientStreamYieldErrorNotRetried(t *testing.T) {
	zero := make([]string, len(sweep.FieldNames()))
	for i := range zero {
		zero[i] = "0"
	}
	var connects int
	var mu sync.Mutex
	mux := http.NewServeMux()
	mux.HandleFunc("GET /v1/campaigns/c000001/rows", func(w http.ResponseWriter, _ *http.Request) {
		mu.Lock()
		connects++
		mu.Unlock()
		var buf []byte
		for i := 0; i < 5; i++ {
			buf = appendRowJSON(buf[:0], i, zero)
			w.Write(buf) //nolint:errcheck
		}
	})
	ts := httptest.NewServer(mux)
	defer ts.Close()

	wantErr := json.Unmarshal([]byte("x"), &struct{}{}) // any sentinel error
	_, err := fastClient(ts.URL).StreamRows(context.Background(), "c000001", -1,
		func(StreamedRow) error { return wantErr })
	if err == nil {
		t.Fatal("want the yield error back")
	}
	mu.Lock()
	defer mu.Unlock()
	if connects != 1 {
		t.Fatalf("server saw %d connects after a yield error, want 1", connects)
	}
}

// TestClientStreamsNonFiniteRows runs a real campaign whose configurations
// all lose every packet — energy-per-bit comes out +Inf — end to end
// through the daemon handler and the client. Before non-finite values were
// JSON-quoted on the wire this stream died on the first such row.
func TestClientStreamsNonFiniteRows(t *testing.T) {
	s := openServer(t, t.TempDir(), Options{})
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	// 80m at power 3 with a single try is far outside the radio's range:
	// PER 1 at any seed, zero delivered packets.
	spec := CampaignSpec{
		Space: SpaceSpec{
			DistancesM:    []float64{80},
			TxPowers:      []int{3},
			MaxTries:      []int{1},
			RetryDelaysS:  []float64{0.03},
			QueueCaps:     []int{1},
			PktIntervalsS: []float64{0.05},
			PayloadsBytes: []int{20, 110},
		},
		Packets:  120,
		BaseSeed: 9,
	}
	c := fastClient(ts.URL)
	var rows []StreamedRow
	st, err := c.Run(context.Background(), spec, func(r StreamedRow) error {
		rows = append(rows, r)
		return nil
	})
	if err != nil {
		t.Fatalf("Run: %v", err)
	}
	if len(rows) != st.Configs || len(rows) != 2 {
		t.Fatalf("streamed %d rows, want %d", len(rows), st.Configs)
	}
	sawInf := false
	for _, r := range rows {
		if math.IsInf(r.Row.Report.EnergyPerBitMicroJ, 1) {
			sawInf = true
		}
	}
	if !sawInf {
		t.Fatal("no +Inf energy-per-bit row; the non-finite wire path went unexercised")
	}
}
