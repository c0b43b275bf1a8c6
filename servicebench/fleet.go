package main

import (
	"context"
	"errors"
	"fmt"
	"io"
	"io/fs"
	"log/slog"
	"net"
	"net/http"
	"os"
	"path/filepath"
	"strings"
	"syscall"
	"time"

	"wsnlink/internal/fabric"
	"wsnlink/internal/obs"
	"wsnlink/internal/serve"
)

// daemon is one campaign service hosted in this process and reachable over
// loopback HTTP, wired the way cmd/wsnlinkd wires its default flags: one
// job at a time, a 64-deep queue, no limits, a metrics registry (so
// /metrics answers), a structured info-level logger (whose output is
// discarded, but whose formatting cost is kept) and, in coordinator mode,
// a fabric executor over runner daemons.
type daemon struct {
	srv  *serve.Server
	fab  *fabric.Fabric
	hs   *http.Server
	url  string
	dir  string
	done chan struct{}
}

// startDaemon opens a daemon on dir and returns once its /readyz answers
// 200. With runners set it is a coordinator sharding over them.
func startDaemon(dir string, runners []string) (*daemon, error) {
	reg := obs.NewRegistry()
	logger := obs.NewLogger(io.Discard, slog.LevelInfo)
	d := &daemon{dir: dir, done: make(chan struct{})}
	var exec serve.Executor
	if len(runners) > 0 {
		fab, err := fabric.New(fabric.Options{
			Runners:         runners,
			ProbeInterval:   250 * time.Millisecond,
			ShardsPerRunner: 2,
			Metrics:         reg,
			Logger:          logger,
		})
		if err != nil {
			return nil, err
		}
		d.fab, exec = fab, fab
	}
	srv, err := serve.Open(dir, serve.Options{
		Jobs:     1,
		MaxQueue: 64,
		Registry: reg,
		Logger:   logger,
		Executor: exec,
	})
	if err != nil {
		d.closeFabric()
		return nil, err
	}
	d.srv = srv
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		srv.Drain(context.Background()) //nolint:errcheck // nothing is running yet
		d.closeFabric()
		return nil, err
	}
	d.url = "http://" + ln.Addr().String()
	d.hs = &http.Server{Handler: srv.Handler(), ReadHeaderTimeout: 5 * time.Second}
	go func() {
		defer close(d.done)
		d.hs.Serve(ln) //nolint:errcheck // always http.ErrServerClosed after close
	}()
	if err := waitReady(d.url); err != nil {
		d.close()
		return nil, err
	}
	return d, nil
}

// waitReady polls /readyz until it answers 200 (the daemon's own readiness
// contract), for at most ten seconds.
func waitReady(url string) error {
	c := &http.Client{Timeout: time.Second}
	deadline := time.Now().Add(10 * time.Second)
	for {
		resp, err := c.Get(url + "/readyz")
		if err == nil {
			resp.Body.Close()
			if resp.StatusCode == http.StatusOK {
				c.CloseIdleConnections()
				return nil
			}
		}
		if time.Now().After(deadline) {
			return fmt.Errorf("daemon at %s not ready after 10s (last error: %v)", url, err)
		}
		time.Sleep(time.Millisecond)
	}
}

func (d *daemon) closeFabric() {
	if d.fab != nil {
		d.fab.Close()
	}
}

// close drains the daemon the way wsnlinkd does on SIGTERM, stops its HTTP
// server and waits for the serving goroutine to end.
func (d *daemon) close() {
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	d.srv.Drain(ctx) //nolint:errcheck // a timed-out drain still stops the scheduler
	d.hs.Close()     //nolint:errcheck // the listener is ours; nothing to report
	<-d.done
	d.closeFabric()
}

// fleet is the set of daemons a workload talks to: one daemon, or a
// coordinator over runners. front is the daemon clients submit to.
type fleet struct {
	dir     string
	front   *daemon
	runners []*daemon
}

// startFleet brings up a single daemon (runners == 0) or a coordinator over
// runners fresh runner daemons, each on its own data directory under dir.
func startFleet(dir string, runners int) (*fleet, error) {
	f := &fleet{dir: dir}
	var urls []string
	for i := 0; i < runners; i++ {
		r, err := startDaemon(filepath.Join(dir, fmt.Sprintf("runner%d", i)), nil)
		if err != nil {
			f.close()
			return nil, err
		}
		f.runners = append(f.runners, r)
		urls = append(urls, r.url)
	}
	front, err := startDaemon(filepath.Join(dir, "front"), urls)
	if err != nil {
		f.close()
		return nil, err
	}
	f.front = front
	return f, nil
}

// close stops the front daemon first, so no shard is dispatched to a
// runner that is already gone, then the runners.
func (f *fleet) close() {
	if f.front != nil {
		f.front.close()
	}
	for _, r := range f.runners {
		r.close()
	}
}

// scrape sums every daemon's /metrics samples by metric name; runner
// samples are kept apart under a "runner:" prefix.
func (f *fleet) scrape(c *http.Client) (map[string]float64, error) {
	out, err := scrapeMetrics(c, f.front.url)
	if err != nil {
		return nil, err
	}
	for _, r := range f.runners {
		m, err := scrapeMetrics(c, r.url)
		if err != nil {
			return nil, err
		}
		for k, v := range m {
			out["runner:"+k] += v
		}
	}
	return out, nil
}

// scrapeMetrics fetches and parses one daemon's /metrics page.
func scrapeMetrics(c *http.Client, url string) (map[string]float64, error) {
	resp, err := c.Get(url + "/metrics")
	if err != nil {
		return nil, fmt.Errorf("scrape %s: %w", url, err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return nil, fmt.Errorf("scrape %s: %s", url, resp.Status)
	}
	return parsePromText(resp.Body)
}

// dirStats sums the apparent size of every regular file under dir and
// counts the files in each top-level subdirectory (jobs, cache, ...).
func dirStats(dir string) (bytes int64, files map[string]int, err error) {
	files = map[string]int{}
	err = filepath.WalkDir(dir, func(path string, e fs.DirEntry, err error) error {
		if err != nil {
			if errors.Is(err, fs.ErrNotExist) {
				return nil // a temp file renamed away mid-walk
			}
			return err
		}
		if !e.Type().IsRegular() {
			return nil
		}
		info, err := e.Info()
		if err != nil {
			if errors.Is(err, fs.ErrNotExist) {
				return nil
			}
			return err
		}
		bytes += info.Size()
		rel, _ := filepath.Rel(dir, path)
		files[strings.SplitN(filepath.ToSlash(rel), "/", 2)[0]]++
		return nil
	})
	return bytes, files, err
}

// disk is the total size of the fleet's data directories.
func (f *fleet) disk() (int64, error) {
	var total int64
	for _, d := range append([]*daemon{f.front}, f.runners...) {
		n, _, err := dirStats(d.dir)
		if err != nil {
			return 0, err
		}
		total += n
	}
	return total, nil
}

// freshDir returns a new empty directory under parent.
func freshDir(parent, prefix string) (string, error) {
	if err := os.MkdirAll(parent, 0o755); err != nil {
		return "", err
	}
	return os.MkdirTemp(parent, prefix)
}

// removeData deletes a data directory and commits the deletion with
// sync(2). Freeing files leaves the file system work to do at its next
// journal commit (and a trim, where the mount discards online) that stalls
// file operations while it runs; syncing here does that work now, before
// the next timed set-up or load rather than inside it.
func removeData(dir string) {
	os.RemoveAll(dir) //nolint:errcheck // scratch space
	syscall.Sync()
}
