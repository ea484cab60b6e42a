package shard

import (
	"repro/internal/core"
	"repro/internal/dispatch"
	"repro/internal/wire"
)

// Remote shard dispatch. When dispatch.Options.Remote carries a worker
// pool, every dispatched phase (the shard builds of BuildDispatch, BuildEco
// and EcoCache.RebuildDispatch, and runPilot's patch routes) wraps its
// in-process runner in a dispatch.RemoteRunner: each task is encoded as an
// internal/wire work unit (sink subset + registry snapshot + the
// remote-relevant option subset), shipped to a routeworker over HTTP, and
// its result decoded back into exactly the value the local runner would
// have produced. Determinism
// makes the transport invisible — a sub-build is a pure function of its
// inputs, so a remote result is bitwise the local one — and the in-process
// runner stays attached as the degradation path: with no healthy worker the
// build completes locally and Result.Dispatch reports the fallbacks.
//
// Observation never travels: work units are encoded with Trace, Ctx and
// SneakProbe stripped, so worker builds run untraced and the per-shard child
// traces record only locally executed (fallback) attempts.

// remote wraps a phase's local runner in the worker-pool transport of
// dopt.Remote: task j ships as a work unit of kind ts.kind over its sink set
// and a snapshot of ts.reg, and ts.result maps the decoded worker result and
// its registry onto the value the local runner returns for the same task.
// Shards ship as KindBuild units over the frozen base; pilot patches as
// KindPatch units over a fresh registry (every patch route commits offsets
// from scratch), with the offset contract read out of the returned registry
// exactly as the local path reads its own.
func (ts *tasks) remote(dopt dispatch.Options, local dispatch.Runner) (*dispatch.RemoteRunner, error) {
	in, encOpt, snap := ts.in, stripLocalOnly(ts.opt), ts.reg.Snapshot()
	return dopt.Remote.Runner(dispatch.RemoteConfig{
		Phase: dopt.Phase,
		Encode: func(t dispatch.Task) ([]byte, error) {
			u := &wire.WorkUnit{
				Kind:     ts.kind,
				Instance: in,
				SinkIDs:  ts.sets[ts.ids[t.Index]],
				Opt:      encOpt,
				Registry: snap,
			}
			return u.Encode()
		},
		Decode: func(data []byte) (any, error) {
			br, err := wire.DecodeResult(data, in)
			if err != nil {
				return nil, err
			}
			reg, err := core.NewRegistryFromSnapshot(br.Registry)
			if err != nil {
				return nil, err
			}
			return ts.result(br, reg), nil
		},
		Local:  local,
		Faults: dopt.Faults,
	})
}

// stripLocalOnly clears the option fields that must not travel in a work
// unit: observation and cancellation stay with the coordinator.
func stripLocalOnly(opt core.Options) core.Options {
	opt.Trace = nil
	opt.Ctx = nil
	opt.SneakProbe = nil
	return opt
}
