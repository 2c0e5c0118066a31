//! The observability context of an experiment's searches.
//!
//! An experiment function takes a [`SearchHooks`] and threads it into
//! every `Explorer` it builds (via [`SearchHooks::attach`]) plus a
//! [`SearchHooks::record`] call per finished search. `run_all` parses the
//! flags (`--threads`, `--progress`, `--telemetry`, `--verify`), owns the
//! progress sink and the telemetry spool, and lends them out as hooks.

use madmax_dse::Explorer;
use madmax_obs::{ProgressSink, SearchTelemetry, TelemetrySpool};

/// Borrowed observability context an experiment threads into its
/// explorers. `Copy`, so call sites pass it around freely.
#[derive(Debug, Clone, Copy)]
pub struct SearchHooks<'a> {
    /// Worker-pool size for every search the experiment runs.
    pub threads: usize,
    /// Live progress sink, when the user asked for one.
    pub sink: Option<&'a dyn ProgressSink>,
    /// Telemetry spool collecting every search's counters, when set.
    pub spool: Option<&'a TelemetrySpool>,
    /// Verify the winner schedule of each plan search (`Explorer::explore`)
    /// with `madmax-verify` (`--verify`); violation counts land in the
    /// recorded telemetry. The goodput and load searches verify nothing.
    pub verify: bool,
}

/// Two-thread hooks with no sink, no spool and no verification, for the
/// experiments' tests.
#[cfg(test)]
pub(crate) const TEST_HOOKS: SearchHooks<'static> = SearchHooks {
    threads: 2,
    sink: None,
    spool: None,
    verify: false,
};

impl<'a> SearchHooks<'a> {
    /// Applies the hooks to an explorer under construction: sizes its
    /// pool, attaches the progress sink, and enables winner verification
    /// (which only `Explorer::explore` performs) when `--verify` was given.
    #[must_use]
    pub fn attach<'m>(&self, explorer: Explorer<'m>) -> Explorer<'m>
    where
        'a: 'm,
    {
        let explorer = explorer.threads(self.threads).verify_winner(self.verify);
        match self.sink {
            Some(sink) => explorer.progress(sink),
            None => explorer,
        }
    }

    /// Records one finished search's telemetry under `name` (no-op
    /// without a spool).
    pub fn record(&self, name: &str, telemetry: &SearchTelemetry) {
        if let Some(spool) = self.spool {
            spool.record(name, telemetry);
        }
    }
}
