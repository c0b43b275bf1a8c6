package main

import (
	"bufio"
	"context"
	"fmt"
	"io"
	"log/slog"
	"net/http"
	"os"
	"path/filepath"
	"runtime"
	"time"

	"wsnlink/internal/obs"
	"wsnlink/internal/serve"
	"wsnlink/internal/sim"
	"wsnlink/internal/stack"
	"wsnlink/internal/sweep"
)

// The layer pass replays a workload's own campaigns down the stack, one
// layer at a time, each layer adding one boundary to the one below it:
//
//	L1 sim.RunBatch over the campaign's configurations, in engine-sized blocks
//	L2 sweep.StreamConfigs with an obs.Metrics
//	L3 L2 plus sweep.Encoder into a spool file and the checkpoint sidecar
//	L4 serve.Server.Submit and StreamRows in process
//	L5 serve.Client over loopback HTTP to a daemon
//	L6 serve.Client to a coordinator over 3 runner daemons
//
// Campaigns run one at a time with one sweep worker, so the difference
// between adjacent layers is the cost the upper layer adds, not a change in
// parallelism. Every call into a layer is wrapped in a span named after the
// layer and the function; the layer metrics are computed from those spans.

// layerRunners is the fabric size of L6, the fabric workload's shape.
const layerRunners = 3

// layerResult is what the spans alone do not carry.
type layerResult struct {
	specs, configs int
	simMallocs     uint64
	firstRowMs     []float64          // L2: StreamConfigs call to first row
	engine, codec  obs.Snapshot       // L2 and L3 engine telemetry
	spoolBytes     int64              // L3 row bytes, headers excluded
	queueWaitMs    []float64          // L4: Submit returned to the job's recorded start
	runMs          []float64          // L4: the job's recorded start to its last row streamed
	httpBytes      int64              // L5 NDJSON bytes of the cached streams
	fabric         map[string]float64 // L6 /metrics deltas
}

// layerSpecs are the campaigns the layer pass replays: the hot pool, or
// client 0's first campaigns, each pinned to one sweep worker.
func layerSpecs(w *workload, seed uint64) []serve.CampaignSpec {
	var specs []serve.CampaignSpec
	for i := 0; i < w.layerSpecs; i++ {
		s := w.campaignSeed(seed, 0, i)
		if w.pool > 0 {
			s = w.poolSeed(seed, i%w.pool)
		}
		spec := w.spec(s)
		spec.Workers = 1
		specs = append(specs, spec)
	}
	return specs
}

// runLayers runs L1..L6 over the workload's campaigns, recording spans in
// tr and scratch data under dir.
func runLayers(ctx context.Context, w *workload, seed uint64, tr *tracer, dir string) (*layerResult, error) {
	specs := layerSpecs(w, seed)
	res := &layerResult{specs: len(specs)}
	cfgs := make([][]stack.Config, len(specs))
	for i, s := range specs {
		cfgs[i] = s.Space.Space().All()
		res.configs += len(cfgs[i])
	}
	for _, layer := range []func() error{
		func() error { return layerSim(ctx, specs, cfgs, tr, res) },
		func() error { return layerEngine(ctx, specs, cfgs, tr, res) },
		func() error { return layerCodec(ctx, specs, cfgs, tr, res, dir) },
		func() error { return layerServer(ctx, specs, tr, res, dir) },
		func() error { return layerHTTP(ctx, specs, tr, res, dir) },
		func() error { return layerFabric(ctx, specs, tr, res, dir) },
	} {
		if err := layer(); err != nil {
			return nil, err
		}
	}
	return res, nil
}

// engineOptions are the sweep options a one-worker daemon job uses.
func engineOptions(spec serve.CampaignSpec) sweep.RunOptions {
	return sweep.RunOptions{Packets: spec.Packets, BaseSeed: spec.BaseSeed, CRN: spec.CRN, Workers: 1}
}

// layerSim is L1: the batch kernel, called in DefaultBatchSize blocks with
// the seeds the engine derives, one arena per campaign as one engine
// worker has.
func layerSim(ctx context.Context, specs []serve.CampaignSpec, cfgs [][]stack.Config, tr *tracer, res *layerResult) error {
	var ms0, ms1 runtime.MemStats
	runtime.ReadMemStats(&ms0)
	for i, spec := range specs {
		arena := sim.NewBatchArena()
		seeds := make([]uint64, sweep.DefaultBatchSize)
		for lo := 0; lo < len(cfgs[i]); lo += sweep.DefaultBatchSize {
			block := cfgs[i][lo:min(lo+sweep.DefaultBatchSize, len(cfgs[i]))]
			for j := range block {
				seeds[j] = sim.DeriveSeed(spec.BaseSeed, lo+j)
				if spec.CRN {
					seeds[j] = sim.DeriveSeed(spec.BaseSeed, 0)
				}
			}
			sp := tr.begin("L1 sim.RunBatch", 0, spec.BaseSeed)
			_, errs, err := sim.RunBatch(ctx, block, sim.BatchOptions{
				Packets: spec.Packets, Seeds: seeds[:len(block)], Arena: arena,
			})
			sp.end()
			if err != nil {
				return err
			}
			for _, e := range errs {
				if e != nil {
					return fmt.Errorf("L1: %w", e)
				}
			}
		}
	}
	runtime.ReadMemStats(&ms1)
	res.simMallocs = ms1.Mallocs - ms0.Mallocs
	return nil
}

// layerEngine is L2: the sweep engine with telemetry and a no-op yield.
func layerEngine(ctx context.Context, specs []serve.CampaignSpec, cfgs [][]stack.Config, tr *tracer, res *layerResult) error {
	m := obs.New()
	for i, spec := range specs {
		opts := engineOptions(spec)
		opts.Metrics = m
		first := true
		sp := tr.begin("L2 sweep.StreamConfigs", 0, spec.BaseSeed)
		t0 := time.Now()
		err := sweep.StreamConfigs(ctx, cfgs[i], opts, func(sweep.Row) error {
			if first {
				res.firstRowMs = append(res.firstRowMs, ms(time.Since(t0)))
				first = false
			}
			return nil
		})
		sp.end()
		if err != nil {
			return fmt.Errorf("L2: %w", err)
		}
	}
	res.engine = m.Snapshot()
	return nil
}

// layerCodec is L3: the engine writing the spool the way a daemon job does
// (encode and flush per row, checkpoint sidecar appended by the engine).
func layerCodec(ctx context.Context, specs []serve.CampaignSpec, cfgs [][]stack.Config, tr *tracer, res *layerResult, dir string) error {
	m := obs.New()
	ldir, err := freshDir(dir, "l3-")
	if err != nil {
		return err
	}
	defer removeData(ldir)
	for i, spec := range specs {
		spool := filepath.Join(ldir, fmt.Sprintf("%d.csv", i))
		f, err := os.Create(spool)
		if err != nil {
			return err
		}
		enc := sweep.NewEncoder(f)
		if err := enc.WriteHeader(); err != nil {
			f.Close()
			return err
		}
		if err := enc.Flush(); err != nil {
			f.Close()
			return err
		}
		header, _ := f.Seek(0, io.SeekCurrent)
		opts := engineOptions(spec)
		opts.Metrics = m
		opts.Checkpoint = filepath.Join(ldir, fmt.Sprintf("%d.ckpt", i))
		sp := tr.begin("L3 sweep.StreamConfigs+Encoder+checkpoint", 0, spec.BaseSeed)
		err = sweep.StreamConfigs(ctx, cfgs[i], opts, func(r sweep.Row) error {
			if err := enc.Encode(r); err != nil {
				return err
			}
			return enc.Flush()
		})
		sp.end()
		size, _ := f.Seek(0, io.SeekCurrent)
		if cerr := f.Close(); err == nil {
			err = cerr
		}
		if err != nil {
			return fmt.Errorf("L3: %w", err)
		}
		res.spoolBytes += size - header
	}
	res.codec = m.Snapshot()
	return nil
}

// layerServer is L4: the job lifecycle in process, without HTTP.
func layerServer(ctx context.Context, specs []serve.CampaignSpec, tr *tracer, res *layerResult, dir string) error {
	ldir, err := freshDir(dir, "l4-")
	if err != nil {
		return err
	}
	defer removeData(ldir)
	srv, err := serve.Open(ldir, serve.Options{
		Jobs: 1, MaxQueue: 64,
		Registry: obs.NewRegistry(),
		Logger:   obs.NewLogger(io.Discard, slog.LevelInfo),
	})
	if err != nil {
		return err
	}
	defer srv.Drain(context.Background()) //nolint:errcheck // every job is terminal by then
	var ids []string
	for _, spec := range specs {
		root := tr.begin("L4 campaign", 0, spec.BaseSeed)
		sp := tr.begin("L4 serve.Server.Submit", root.id(), spec.BaseSeed)
		st, err := srv.Submit(spec)
		sp.end()
		if err != nil {
			return fmt.Errorf("L4 submit: %w", err)
		}
		submitted := time.Now()
		sp = tr.begin("L4 serve.Server.StreamRows", root.id(), spec.BaseSeed)
		chk := rowChecker{want: st.Configs}
		err = srv.StreamRows(ctx, st.ID, -1, func(i int, _ []string) error { return chk.check(i) })
		sp.end()
		root.end()
		streamed := time.Now()
		if err == nil {
			st, err = srv.Status(st.ID)
		}
		if err == nil && st.StartedMs > 0 {
			// The job's start is taken from its own record, so nothing
			// watches the job while it runs. The record keeps whole
			// milliseconds: the start lies in that millisecond and not
			// before Submit returned (a job started sooner waited for
			// nothing), and the middle of what is left is taken.
			lo, hi := time.UnixMilli(st.StartedMs), time.UnixMilli(st.StartedMs+1)
			if lo.Before(submitted) {
				lo = submitted
			}
			if hi.Before(submitted) {
				hi = submitted
			}
			started := lo.Add(hi.Sub(lo) / 2)
			res.queueWaitMs = append(res.queueWaitMs, ms(started.Sub(submitted)))
			res.runMs = append(res.runMs, ms(streamed.Sub(started)))
		}
		if err == nil {
			err = chk.done()
		}
		if err != nil {
			return fmt.Errorf("L4 %s: %w", st.ID, err)
		}
		ids = append(ids, st.ID)
	}
	for _, id := range ids {
		sp := tr.begin("L4 serve.Server.StreamRows cached", 0, 0)
		err = srv.StreamRows(ctx, id, -1, func(int, []string) error { return nil })
		sp.end()
		if err != nil {
			return err
		}
	}
	return nil
}

// layerHTTP is L5: the same campaigns through serve.Client to a daemon,
// then each cached stream twice: drained raw, and through the client.
func layerHTTP(ctx context.Context, specs []serve.CampaignSpec, tr *tracer, res *layerResult, dir string) error {
	ldir, err := freshDir(dir, "l5-")
	if err != nil {
		return err
	}
	defer removeData(ldir)
	d, err := startDaemon(ldir, nil)
	if err != nil {
		return err
	}
	defer d.close()
	httpc := &http.Client{Transport: http.DefaultTransport.(*http.Transport).Clone()}
	defer httpc.CloseIdleConnections()
	c := serve.NewClient(d.url)
	c.HTTPClient = httpc
	ids, err := clientCampaigns(ctx, c, specs, tr, "L5")
	if err != nil {
		return err
	}
	for _, id := range ids {
		sp := tr.begin("L5 GET rows cached", 0, 0)
		n, err := drainRows(ctx, httpc, d.url+"/v1/campaigns/"+id+"/rows")
		sp.end()
		if err != nil {
			return err
		}
		res.httpBytes += n
		sp = tr.begin("L5 serve.Client.StreamRows cached", 0, 0)
		_, err = c.StreamRows(ctx, id, -1, func(serve.StreamedRow) error { return nil })
		sp.end()
		if err != nil {
			return err
		}
	}
	return nil
}

// layerFabric is L6: the same campaigns through a coordinator.
func layerFabric(ctx context.Context, specs []serve.CampaignSpec, tr *tracer, res *layerResult, dir string) error {
	ldir, err := freshDir(dir, "l6-")
	if err != nil {
		return err
	}
	defer removeData(ldir)
	f, err := startFleet(ldir, layerRunners)
	if err != nil {
		return err
	}
	defer f.close()
	httpc := &http.Client{Transport: http.DefaultTransport.(*http.Transport).Clone()}
	defer httpc.CloseIdleConnections()
	before, err := f.scrape(httpc)
	if err != nil {
		return err
	}
	c := serve.NewClient(f.front.url)
	c.HTTPClient = httpc
	if _, err := clientCampaigns(ctx, c, specs, tr, "L6"); err != nil {
		return err
	}
	after, err := f.scrape(httpc)
	if err != nil {
		return err
	}
	res.fabric = delta(before, after)
	return nil
}

// clientCampaigns submits and streams each campaign in turn through c,
// checking row counts, and returns the job IDs.
func clientCampaigns(ctx context.Context, c *serve.Client, specs []serve.CampaignSpec, tr *tracer, layer string) ([]string, error) {
	var ids []string
	for _, spec := range specs {
		root := tr.begin(layer+" campaign", 0, spec.BaseSeed)
		sp := tr.begin(layer+" serve.Client.Submit", root.id(), spec.BaseSeed)
		st, err := c.Submit(ctx, spec)
		sp.end()
		if err != nil {
			return nil, fmt.Errorf("%s submit: %w", layer, err)
		}
		chk := rowChecker{want: st.Configs}
		sp = tr.begin(layer+" serve.Client.StreamRows", root.id(), spec.BaseSeed)
		_, err = c.StreamRows(ctx, st.ID, -1, func(r serve.StreamedRow) error { return chk.check(r.Index) })
		sp.end()
		root.end()
		if err == nil {
			err = chk.done()
		}
		if err != nil {
			return nil, fmt.Errorf("%s %s: %w", layer, st.ID, err)
		}
		ids = append(ids, st.ID)
	}
	return ids, nil
}

// drainRows reads a rows endpoint to the end without decoding, returning
// the body size.
func drainRows(ctx context.Context, c *http.Client, url string) (int64, error) {
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, url, nil)
	if err != nil {
		return 0, err
	}
	resp, err := c.Do(req)
	if err != nil {
		return 0, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return 0, fmt.Errorf("GET %s: %s", url, resp.Status)
	}
	return io.Copy(io.Discard, bufio.NewReader(resp.Body))
}

// ms converts a duration to milliseconds.
func ms(d time.Duration) float64 { return float64(d.Nanoseconds()) / 1e6 }
