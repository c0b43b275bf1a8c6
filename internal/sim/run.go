package sim

import (
	"context"
	"errors"
	"sync"

	"wsnlink/internal/stack"
)

// Run simulates one configuration on EngineDES. It is a compatibility
// wrapper over RunContext with context.Background().
func Run(cfg stack.Config, opts Options) (Result, error) {
	return RunContext(context.Background(), cfg, opts)
}

// RunContext simulates one configuration on EngineDES: the recurrence of
// RunFast with a backoff sampled per attempt, so every packet's timeline
// carries the CSMA-CA jitter of the TinyOS stack. Cancellation and deadline
// are checked between packets; on cancellation the run is abandoned with a
// zero Result and an error wrapping ctx.Err(). The checks never touch the
// RNG, so a fixed seed stays deterministic.
func RunContext(ctx context.Context, cfg stack.Config, opts Options) (Result, error) {
	return runLane(ctx, cfg, opts, EngineDES)
}

// RunFast is the campaign-scale Monte-Carlo path (EngineFast): a
// single-server-queue recurrence that charges each attempt the mean
// backoff instead of sampling one. SNR is still sampled per attempt from
// the same channel process, so loss statistics match EngineDES; only the
// backoff jitter (zero-mean, ±5 ms) is averaged out. An ablation benchmark
// (BenchmarkFastVsDES) and an integration test quantify the agreement.
//
// The recurrence: packet i arrives at a_i = i·T_pkt; service starts at
// s_i = max(a_i, f) where f is the time the server frees up; queue occupancy
// at arrival is the number of accepted-but-unfinished packets; arrivals that
// would exceed Q_max waiting packets are dropped.
//
// The implementation is the batch kernel (see RunBatch) run over a single
// pooled lane, so a steady state of repeated calls allocates nothing and a
// single-config run is identical to the same configuration inside a batch.
func RunFast(cfg stack.Config, opts Options) (Result, error) {
	return RunFastContext(context.Background(), cfg, opts)
}

// RunFastContext is the context-aware fast path: cancellation and deadline
// are checked between packets, so a canceled campaign abandons a
// configuration after at most one packet's worth of work.
func RunFastContext(ctx context.Context, cfg stack.Config, opts Options) (Result, error) {
	return runLane(ctx, cfg, opts, EngineFast)
}

// laneArenaPool recycles single-lane arenas across RunContext and
// RunFastContext calls; after warm-up both engines perform zero
// steady-state allocations (TestRunFastZeroAlloc, TestRunDESZeroAlloc).
var laneArenaPool = sync.Pool{New: func() any { return NewBatchArena() }}

func runLane(ctx context.Context, cfg stack.Config, opts Options, engine EngineKind) (Result, error) {
	if err := cfg.Validate(); err != nil {
		return Result{}, err
	}
	opts = opts.withDefaults()
	if opts.Packets < 1 {
		return Result{}, errors.New("sim: Packets must be >= 1")
	}
	a := laneArenaPool.Get().(*BatchArena)
	defer laneArenaPool.Put(a)
	l := a.lane(0)
	if err := l.reset(cfg, opts.Seed, engine, opts.Packets,
		opts.Channel, opts.ErrorModel, opts.RecordPackets, opts.Obs, opts.Trace); err != nil {
		return Result{}, err
	}
	return l.run(ctx)
}
