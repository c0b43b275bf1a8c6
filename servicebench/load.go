package main

import (
	"context"
	"fmt"
	"net/http"
	"runtime"
	"sync"
	"sync/atomic"
	"syscall"
	"time"

	"wsnlink/internal/serve"
	"wsnlink/internal/sweep"
)

// record is one campaign as its client saw it. Times are on the pass clock.
type record struct {
	client, seq int
	seed        uint64
	pool        int // hot-pool index; -1 for a fresh campaign
	// start: Submit called; submitted: Submit returned; first, last: first
	// and last row received; end: StreamRows returned.
	start, submitted, first, last, end time.Duration
	rows                               int
	err                                error
	kept                               []sweep.Row // a sampled campaign's rows
}

// round is one stretch of load against one fleet.
type round struct {
	start, end time.Duration
	records    []*record
	disk       int64 // bytes in the fleet's data directories after the load
	peakRSS    int64 // process peak resident bytes over set-up and load
}

// pass is one measured run of a workload: set-up, closed-loop load, and
// the correctness gate over what the clients received.
type pass struct {
	w     *workload
	seed  uint64
	tr    *tracer // nil: untraced
	dir   string
	epoch time.Time
	httpc *http.Client
	seqs  []int // next sequence number per client, across rounds
	rows  int   // rows per campaign

	setups []float64 // seconds to bring a fleet to ready, one per set-up
	rounds []*round
	pool   [][]byte // hot-pool datasets as first streamed (replay)
	// poolChecked: pool has been compared with the sweep engine.
	poolChecked bool

	// Observed over the load windows only (not set-up, not the gate):
	metrics    map[string]float64 // /metrics deltas, all rounds summed
	allocBytes uint64             // Go heap bytes allocated
	gcCycles   uint32
	loadTime   time.Duration
	// State of the front daemon after the last round.
	retained int
	files    map[string]int
}

// newPass prepares a pass writing its data directories under dir.
func newPass(w *workload, seed uint64, tr *tracer, dir string) *pass {
	t := http.DefaultTransport.(*http.Transport).Clone()
	return &pass{
		w: w, seed: seed, tr: tr, dir: dir,
		epoch: time.Now(),
		httpc: &http.Client{Transport: t},
		// Never more clients than cores: the load shares the process with
		// the daemons.
		seqs:    make([]int, min(w.clients, runtime.NumCPU())),
		rows:    w.configs(),
		metrics: map[string]float64{},
	}
}

func (p *pass) now() time.Duration { return time.Since(p.epoch) }

// setupsPerRound is how many times each round brings a fresh fleet to
// ready; every set-up is timed and the last one carries the load.
const setupsPerRound = 3

// run loads the workload in rounds of w.round campaigns, each on a fresh
// fleet and data directory, until seconds seconds have passed; the round
// that is running when the time is up completes. Each round's sampled
// campaigns go through the byte-for-byte gate after its load. A fleet's
// data directory is deleted as soon as the fleet is closed: files that
// live only seconds are never written back, and a run that kept them would
// slow the disk for the runs after it. A returned error is a failure of
// the benchmark itself (set-up, scraping, references), not of a campaign.
func (p *pass) run(ctx context.Context, seconds float64) error {
	defer p.httpc.CloseIdleConnections()
	syscall.Sync() // start from a committed file system, whatever ran before
	stop := time.Now().Add(time.Duration(seconds * float64(time.Second)))
	for len(p.rounds) == 0 || time.Now().Before(stop) {
		resetPeakRSS()
		f, err := p.setup(ctx)
		if err != nil {
			return err
		}
		r, err := p.load(ctx, f)
		f.close()
		removeData(f.dir)
		if err != nil {
			return err
		}
		if err := p.verify(ctx, r); err != nil {
			return err
		}
	}
	return nil
}

// setup brings fresh fleets to ready setupsPerRound times, warming the hot
// pool if the workload replays one, records how long each took, and keeps
// the last.
func (p *pass) setup(ctx context.Context) (*fleet, error) {
	var f *fleet
	for i := 0; i < setupsPerRound; i++ {
		if f != nil {
			f.close()
			removeData(f.dir)
		}
		dir, err := freshDir(p.dir, "fleet-")
		if err != nil {
			return nil, err
		}
		t0 := time.Now()
		if f, err = startFleet(dir, p.w.runners); err != nil {
			return nil, err
		}
		if p.w.pool > 0 {
			if err := p.warmPool(ctx, f); err != nil {
				f.close()
				return nil, err
			}
		}
		p.setups = append(p.setups, time.Since(t0).Seconds())
	}
	// The previous round's fleets are garbage now; collect it here rather
	// than in the first campaigns of this round.
	runtime.GC()
	return f, nil
}

// warmPool computes the hot pool on the fleet. The first set-up keeps the
// datasets as the replay reference; later set-ups must reproduce them.
func (p *pass) warmPool(ctx context.Context, f *fleet) error {
	c := serve.NewClient(f.front.url)
	c.HTTPClient = p.httpc
	first := p.pool == nil
	if first {
		p.pool = make([][]byte, p.w.pool)
	}
	for i := range p.pool {
		got, err := daemonReference(ctx, c, p.w.spec(p.w.poolSeed(p.seed, i)))
		if err != nil {
			return fmt.Errorf("warm hot pool: %w", err)
		}
		if first {
			p.pool[i] = got
		} else if string(got) != string(p.pool[i]) {
			return fmt.Errorf("hot-pool campaign %d streamed different bytes on a fresh daemon", i)
		}
	}
	return nil
}

// load drives the workload's clients against the fleet until they have
// run w.round campaigns between them.
func (p *pass) load(ctx context.Context, f *fleet) (*round, error) {
	before, err := f.scrape(p.httpc)
	if err != nil {
		return nil, err
	}
	var ms0, ms1 runtime.MemStats
	runtime.ReadMemStats(&ms0)
	r := &round{start: p.now()}
	var claimed atomic.Int64
	claim := func() bool { return claimed.Add(1) <= int64(p.w.round) }
	picks := p.w.samplePicks(p.seed, len(p.rounds))
	per := make([][]*record, len(p.seqs))
	var wg sync.WaitGroup
	for c := range per {
		wg.Add(1)
		go func() {
			defer wg.Done()
			cl := serve.NewClient(f.front.url)
			cl.HTTPClient = p.httpc
			for k := 0; ctx.Err() == nil && claim(); k++ {
				seq := p.seqs[c]
				p.seqs[c]++
				per[c] = append(per[c], p.campaign(ctx, cl, c, seq, c == 0 && picks[k]))
			}
		}()
	}
	wg.Wait()
	runtime.ReadMemStats(&ms1)
	r.end = r.start
	for _, recs := range per {
		r.records = append(r.records, recs...)
		for _, rec := range recs {
			r.end = max(r.end, rec.end)
		}
	}
	p.allocBytes += ms1.TotalAlloc - ms0.TotalAlloc
	p.gcCycles += ms1.NumGC - ms0.NumGC
	p.loadTime += r.end - r.start

	r.peakRSS = peakRSS()

	after, err := f.scrape(p.httpc)
	if err != nil {
		return nil, err
	}
	for k, v := range delta(before, after) {
		p.metrics[k] += v
	}
	if r.disk, err = f.disk(); err != nil {
		return nil, err
	}
	p.retained = len(f.front.srv.List())
	if _, p.files, err = dirStats(f.front.dir); err != nil {
		return nil, err
	}
	p.rounds = append(p.rounds, r)
	return r, ctx.Err()
}

// campaign runs one closed-loop iteration: submit, then stream every row,
// checking indices as they arrive and, when keep is set, holding the rows
// for the byte-for-byte gate.
func (p *pass) campaign(ctx context.Context, cl *serve.Client, client, seq int, keep bool) *record {
	rec := &record{client: client, seq: seq, pool: -1}
	if p.w.pool > 0 {
		rec.pool = p.w.poolPick(p.seed, client, seq)
		rec.seed = p.w.poolSeed(p.seed, rec.pool)
	} else {
		rec.seed = p.w.campaignSeed(p.seed, client, seq)
	}
	chk := rowChecker{want: p.rows}

	root := p.tr.begin("campaign", 0, rec.seed)
	defer root.end()
	rec.start = p.now()
	sp := p.tr.begin("serve.Client.Submit", root.id(), rec.seed)
	st, err := cl.Submit(ctx, p.w.spec(rec.seed))
	sp.end()
	rec.submitted = p.now()
	if err != nil {
		rec.end = rec.submitted
		rec.err = fmt.Errorf("submit: %w", err)
		return rec
	}
	sp = p.tr.begin("serve.Client.StreamRows", root.id(), rec.seed)
	_, err = cl.StreamRows(ctx, st.ID, -1, func(r serve.StreamedRow) error {
		t := p.now()
		if chk.next == 0 {
			rec.first = t
		}
		rec.last = t
		if err := chk.check(r.Index); err != nil {
			return err
		}
		if keep {
			rec.kept = append(rec.kept, r.Row)
		}
		return nil
	})
	sp.end()
	rec.end = p.now()
	rec.rows = chk.next
	if err == nil {
		err = chk.done()
	}
	if err != nil {
		rec.err = fmt.Errorf("stream %s: %w", st.ID, err)
	}
	return rec
}

// verify compares every sampled campaign of the round byte for byte with
// its reference: the in-process sweep engine for fresh link campaigns, the
// dataset as first streamed for hot-pool replays (itself checked against
// the engine), and a single daemon for campaigns a coordinator sharded.
func (p *pass) verify(ctx context.Context, r *round) error {
	var ref func(rec *record) ([]byte, error)
	switch {
	case p.w.pool > 0:
		if !p.poolChecked {
			for i, got := range p.pool {
				want, err := localReference(ctx, p.w.spec(p.w.poolSeed(p.seed, i)))
				if err != nil {
					return err
				}
				if err := compareEncoded(got, want); err != nil {
					return fmt.Errorf("hot-pool campaign %d: %w", i, err)
				}
			}
			p.poolChecked = true
		}
		ref = func(rec *record) ([]byte, error) { return p.pool[rec.pool], nil }
	case p.w.runners > 0:
		dir, err := freshDir(p.dir, "reference-")
		if err != nil {
			return err
		}
		defer removeData(dir)
		d, err := startDaemon(dir, nil)
		if err != nil {
			return err
		}
		defer d.close()
		c := serve.NewClient(d.url)
		c.HTTPClient = p.httpc
		ref = func(rec *record) ([]byte, error) { return daemonReference(ctx, c, p.w.spec(rec.seed)) }
	default:
		ref = func(rec *record) ([]byte, error) { return localReference(ctx, p.w.spec(rec.seed)) }
	}
	for _, rec := range r.records {
		if rec.kept == nil || rec.err != nil {
			rec.kept = nil
			continue
		}
		want, err := ref(rec)
		if err != nil {
			return err
		}
		if err := compareRows(rec.kept, want); err != nil {
			rec.err = fmt.Errorf("byte gate, client %d campaign %d (seed %d): %w",
				rec.client, rec.seq, rec.seed, err)
		}
		rec.kept = nil
	}
	return nil
}

// failures lists the first limit campaign failures of the pass, in order.
func (p *pass) failures(limit int) []error {
	var out []error
	for _, r := range p.rounds {
		for _, rec := range r.records {
			if rec.err != nil && len(out) < limit {
				out = append(out, rec.err)
			}
		}
	}
	return out
}
