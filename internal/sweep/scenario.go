package sweep

import (
	"context"
	"errors"

	"wsnlink/internal/scenario"
	"wsnlink/internal/sim"
	"wsnlink/internal/stack"
)

// runOneScenario executes one scenario row at its derived seed.
func runOneScenario(ctx context.Context, spec scenario.Spec, cfg stack.Config, idx int, opts RunOptions, fingerprint uint64) (scenario.Row, error) {
	return scenario.Run(ctx, spec, cfg, scenario.RunOptions{
		Packets:    opts.Packets,
		Seed:       opts.seedFor(idx),
		FullDES:    opts.Engine == sim.EngineDES,
		ErrorModel: opts.ErrorModel,
		Channel:    opts.Channel,
		Obs:        opts.Metrics,
		Trace:      opts.traceSpan(fingerprint, idx),
	})
}

// RunScenarios is the collecting wrapper over StreamScenarios: rows in
// input order, partial work returned alongside a non-nil error.
func RunScenarios(ctx context.Context, spec scenario.Spec, cfgs []stack.Config, opts RunOptions) ([]scenario.Row, error) {
	rows := make([]scenario.Row, 0, len(cfgs))
	err := StreamScenarios(ctx, spec, cfgs, opts, func(r scenario.Row) error {
		rows = append(rows, r)
		return nil
	})
	return rows, err
}

// StreamScenarios is StreamConfigs for scenario campaigns: it runs every
// configuration through the scenario spec's simulator on the same engine
// loop, so every StreamConfigs semantic carries over — deterministic
// per-index seeding (sharing seedFor, so CRN pairing works unchanged),
// bounded in-flight work, context cancellation between packets, FailFast/
// ContinueOnError, engine metrics stages, OnRow with each row's link
// columns, trace spans derived from the campaign fingerprint, and the
// checkpoint sidecar with byte-identical resume. Scenario rows always run
// one configuration per worker pull (the batch kernel is link-only), so
// BatchSize does not apply.
func StreamScenarios(ctx context.Context, spec scenario.Spec, cfgs []stack.Config, opts RunOptions, yield func(scenario.Row) error) error {
	if len(cfgs) == 0 {
		return errors.New("sweep: no configurations")
	}
	if err := spec.Normalize(); err != nil {
		return err
	}
	opts, err := opts.withDefaults()
	if err != nil {
		return err
	}
	opts.BatchSize = 1
	fingerprint := scenarioFingerprint(spec, cfgs, opts)
	run := func(ctx context.Context, start int, rows []scenario.Row, errs []error) {
		rows[0], errs[0] = runOneScenario(ctx, spec, cfgs[start], start, opts, fingerprint)
	}
	return stream(ctx, cfgs, opts, fingerprint, func() simulateBlock[scenario.Row] { return run },
		scenarioLinkRow, yield)
}

// scenarioLinkRow returns the link-schema columns every scenario row
// carries.
func scenarioLinkRow(r scenario.Row) Row {
	return Row{Config: r.Config, Report: r.Report, Seed: r.Seed, Packets: r.Packets}
}
