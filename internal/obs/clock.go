package obs

import "time"

// Now and Since are the sanctioned monotonic-clock reads for the
// deterministic packages (core, order, spatial, ...): engine timers that
// feed trace metrics — pairing_ns, grid_rebuild_ns — read the clock
// through this seam, never through
// the time package directly. The seam makes the rule statically checkable
// (dmevet's wallclock analyzer flags direct time.Now/time.Since in those
// packages) and keeps the contract auditable: everything that flows out of
// obs.Now is observability, and nothing downstream of it may influence a
// build result. Schedule timing — backoff, hedging, health probes — uses
// dispatch.Clock instead, which fake-clock tests can substitute.

// Now reads the monotonic clock for an observability timer.
func Now() time.Time { return time.Now() }

// Since returns the elapsed time since an obs.Now read.
func Since(t time.Time) time.Duration { return time.Since(t) }
