//! Serving-load knobs: the serializable description of a *request
//! stream* hitting a serve deployment — arrival process, admission
//! queue, and paged KV-cache budget.
//!
//! [`ServeConfig`](crate::ServeConfig) describes one synchronized
//! (prefill, decode) wave; [`LoadSpec`] describes the traffic around it:
//! how requests arrive ([`ArrivalSpec`]), how many decode slots run
//! in flight, how deep the admission queue may grow, and how many paged
//! KV-cache blocks the deployment holds. The continuous-batching
//! simulator (`madmax-serve`) executes a `LoadSpec` against a priced
//! plan; this crate only owns the *shape* so plans, workloads, and load
//! specs serialize through one config layer.

use serde::Deserialize;

/// One request of a trace-driven arrival process.
#[derive(Debug, Clone, Copy, PartialEq, Deserialize)]
pub struct RequestSpec {
    /// Arrival time in seconds from the start of the run.
    pub arrival: f64,
    /// Prompt length in tokens.
    pub prompt_len: usize,
    /// Output tokens to generate (at least 1 — the serving layer counts
    /// the prefill's first token separately).
    pub decode_len: usize,
}

/// The request arrival process of a load run.
#[derive(Debug, Clone, PartialEq)]
pub enum ArrivalSpec {
    /// A seeded, deterministic Poisson process: exponential inter-arrival
    /// times at `rate` requests/second, truncated after `count` requests.
    /// Prompt/decode lengths come from the workload's `ServeConfig`.
    Poisson {
        /// Mean arrival rate, requests per second.
        rate: f64,
        /// Number of requests to generate.
        count: usize,
        /// PRNG seed; equal seeds reproduce the stream exactly.
        seed: u64,
    },
    /// A bursty on-off modulated Poisson process: the stream alternates
    /// between ON phases (Poisson arrivals at `rate` requests/second)
    /// and OFF phases (no arrivals), with exponentially distributed
    /// phase lengths of mean `on_secs` and `off_secs`. Truncated after
    /// `count` requests; prompt/decode lengths come from the workload's
    /// `ServeConfig`.
    Bursty {
        /// Mean arrival rate *during ON phases*, requests per second.
        rate: f64,
        /// Mean ON-phase length, seconds.
        on_secs: f64,
        /// Mean OFF-phase length, seconds.
        off_secs: f64,
        /// Number of requests to generate.
        count: usize,
        /// PRNG seed; equal seeds reproduce the stream exactly.
        seed: u64,
    },
    /// An explicit request trace (e.g. parsed from JSONL), sorted by
    /// arrival time.
    Trace {
        /// The requests, in arrival order.
        requests: Vec<RequestSpec>,
    },
}

impl ArrivalSpec {
    /// Number of requests this process will emit.
    pub fn count(&self) -> usize {
        match self {
            ArrivalSpec::Poisson { count, .. } | ArrivalSpec::Bursty { count, .. } => *count,
            ArrivalSpec::Trace { requests } => requests.len(),
        }
    }
}

/// A complete load scenario: arrival process plus the admission and
/// paged-KV knobs of the serving deployment.
#[derive(Debug, Clone, PartialEq)]
pub struct LoadSpec {
    /// How requests arrive.
    pub arrivals: ArrivalSpec,
    /// Maximum requests decoded in flight at once. `None` uses the serve
    /// workload's effective decode batch.
    pub slots: Option<usize>,
    /// Paged KV-cache budget in blocks. `None` leaves the KV-cache
    /// unpaged (admission is bounded by slots and queue depth only).
    pub kv_blocks: Option<u64>,
    /// Tokens per KV-cache block (vLLM-style paging granularity).
    pub block_tokens: usize,
    /// Admission-queue capacity; arrivals past it are rejected. `None`
    /// queues without bound.
    pub queue_capacity: Option<usize>,
    /// With a `kv_blocks` budget: admit optimistically and, when a decode
    /// step cannot grow its cache, evict the youngest in-flight request
    /// (its prefill is recomputed over prompt + generated tokens when it
    /// is re-admitted). `false` reserves each request's worst-case block
    /// count at admission, so running requests never stall.
    pub eviction: bool,
    /// Stop the run at this time (seconds); queued and in-flight requests
    /// are reported as such. `None` drains every request.
    pub horizon: Option<f64>,
}

/// Default paging granularity, tokens per block.
pub(crate) const DEFAULT_BLOCK_TOKENS: usize = 16;

impl LoadSpec {
    /// A Poisson request stream at `rate` requests/second, truncated
    /// after `count` requests, with unbounded queue and unpaged KV.
    pub fn poisson(rate: f64, count: usize, seed: u64) -> Self {
        Self::with_arrivals(ArrivalSpec::Poisson { rate, count, seed })
    }

    /// A bursty on-off request stream: Poisson at `rate` requests/second
    /// during ON phases (mean `on_secs`), silent during OFF phases (mean
    /// `off_secs`), truncated after `count` requests.
    pub fn bursty(rate: f64, on_secs: f64, off_secs: f64, count: usize, seed: u64) -> Self {
        Self::with_arrivals(ArrivalSpec::Bursty {
            rate,
            on_secs,
            off_secs,
            count,
            seed,
        })
    }

    /// A trace-driven request stream.
    pub fn trace(requests: Vec<RequestSpec>) -> Self {
        Self::with_arrivals(ArrivalSpec::Trace { requests })
    }

    fn with_arrivals(arrivals: ArrivalSpec) -> Self {
        Self {
            arrivals,
            slots: None,
            kv_blocks: None,
            block_tokens: DEFAULT_BLOCK_TOKENS,
            queue_capacity: None,
            eviction: false,
            horizon: None,
        }
    }

    /// Sets the in-flight slot count.
    #[must_use]
    pub fn with_slots(mut self, slots: usize) -> Self {
        self.slots = Some(slots);
        self
    }

    /// Sets the paged KV-cache budget, in blocks.
    #[must_use]
    pub fn with_kv_blocks(mut self, blocks: u64) -> Self {
        self.kv_blocks = Some(blocks);
        self
    }

    /// Sets the admission-queue capacity.
    #[must_use]
    pub fn with_queue_capacity(mut self, cap: usize) -> Self {
        self.queue_capacity = Some(cap);
        self
    }

    /// Enables eviction + recompute under KV pressure.
    #[must_use]
    pub fn with_eviction(mut self, on: bool) -> Self {
        self.eviction = on;
        self
    }

    /// Stops the run at `horizon` seconds.
    #[must_use]
    pub fn with_horizon(mut self, horizon: f64) -> Self {
        self.horizon = Some(horizon);
        self
    }

    /// Structural validation: rates/times finite and non-negative, trace
    /// sorted, paging granularity non-zero, per-request token counts
    /// non-zero.
    ///
    /// # Errors
    ///
    /// A human-readable description of the first violated constraint.
    pub fn validate(&self) -> Result<(), String> {
        if self.block_tokens == 0 {
            return Err("block_tokens must be >= 1".to_owned());
        }
        if self.slots == Some(0) {
            return Err("slots must be >= 1".to_owned());
        }
        if self.kv_blocks == Some(0) {
            return Err("kv_blocks must be >= 1".to_owned());
        }
        if let Some(h) = self.horizon {
            if !h.is_finite() || h < 0.0 {
                return Err(format!("horizon must be finite and >= 0, got {h}"));
            }
        }
        match &self.arrivals {
            ArrivalSpec::Poisson { rate, count, .. } => {
                if !rate.is_finite() || *rate <= 0.0 {
                    return Err(format!("Poisson rate must be finite and > 0, got {rate}"));
                }
                if *count == 0 {
                    return Err("Poisson count must be >= 1".to_owned());
                }
            }
            ArrivalSpec::Bursty {
                rate,
                on_secs,
                off_secs,
                count,
                ..
            } => {
                if !rate.is_finite() || *rate <= 0.0 {
                    return Err(format!("bursty rate must be finite and > 0, got {rate}"));
                }
                if !on_secs.is_finite() || *on_secs <= 0.0 {
                    return Err(format!(
                        "bursty on_secs must be finite and > 0, got {on_secs}"
                    ));
                }
                if !off_secs.is_finite() || *off_secs <= 0.0 {
                    return Err(format!(
                        "bursty off_secs must be finite and > 0, got {off_secs}"
                    ));
                }
                if *count == 0 {
                    return Err("bursty count must be >= 1".to_owned());
                }
            }
            ArrivalSpec::Trace { requests } => {
                if requests.is_empty() {
                    return Err("arrival trace is empty".to_owned());
                }
                let mut prev = 0.0f64;
                for (i, r) in requests.iter().enumerate() {
                    if !r.arrival.is_finite() || r.arrival < 0.0 {
                        return Err(format!(
                            "request {i}: arrival must be finite and >= 0, got {}",
                            r.arrival
                        ));
                    }
                    if r.arrival < prev {
                        return Err(format!("request {i}: arrivals must be sorted"));
                    }
                    prev = r.arrival;
                    if r.prompt_len == 0 || r.decode_len == 0 {
                        return Err(format!(
                            "request {i}: prompt_len and decode_len must be >= 1"
                        ));
                    }
                }
            }
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn builders_fill_the_knobs() {
        let spec = LoadSpec::poisson(8.0, 100, 42)
            .with_slots(16)
            .with_kv_blocks(4096)
            .with_queue_capacity(64)
            .with_eviction(true)
            .with_horizon(30.0);
        assert_eq!(spec.arrivals.count(), 100);
        assert_eq!(spec.slots, Some(16));
        assert_eq!(spec.kv_blocks, Some(4096));
        assert_eq!(spec.queue_capacity, Some(64));
        assert!(spec.eviction);
        assert_eq!(spec.horizon, Some(30.0));
        spec.validate().unwrap();
    }

    #[test]
    fn validation_catches_bad_shapes() {
        assert!(LoadSpec::poisson(0.0, 10, 1).validate().is_err());
        assert!(LoadSpec::poisson(f64::NAN, 10, 1).validate().is_err());
        assert!(LoadSpec::poisson(1.0, 0, 1).validate().is_err());
        let mut spec = LoadSpec::poisson(1.0, 1, 1);
        spec.block_tokens = 0;
        assert!(spec.validate().is_err());
        assert!(LoadSpec::bursty(0.0, 1.0, 1.0, 10, 1).validate().is_err());
        assert!(LoadSpec::bursty(4.0, 0.0, 1.0, 10, 1).validate().is_err());
        assert!(LoadSpec::bursty(4.0, 1.0, -1.0, 10, 1).validate().is_err());
        assert!(LoadSpec::bursty(4.0, 1.0, 1.0, 0, 1).validate().is_err());
        assert!(LoadSpec::bursty(4.0, 1.0, 1.0, 10, 1).validate().is_ok());
        assert_eq!(LoadSpec::bursty(4.0, 1.0, 1.0, 10, 1).arrivals.count(), 10);
        assert!(LoadSpec::trace(vec![]).validate().is_err());
        let unsorted = LoadSpec::trace(vec![
            RequestSpec {
                arrival: 1.0,
                prompt_len: 8,
                decode_len: 4,
            },
            RequestSpec {
                arrival: 0.5,
                prompt_len: 8,
                decode_len: 4,
            },
        ]);
        assert!(unsorted.validate().is_err());
        let zero_tokens = LoadSpec::trace(vec![RequestSpec {
            arrival: 0.0,
            prompt_len: 0,
            decode_len: 4,
        }]);
        assert!(zero_tokens.validate().is_err());
    }

    #[test]
    fn specs_round_trip_through_json() {
        let json = r#"{"arrival": 0.25, "prompt_len": 128, "decode_len": 64}"#;
        let spec: RequestSpec = serde_json::from_str(json).unwrap();
        let expected = RequestSpec {
            arrival: 0.25,
            prompt_len: 128,
            decode_len: 64,
        };
        assert_eq!(spec, expected);
        assert!(serde_json::from_str::<RequestSpec>(r#"{"arrival": 0.25}"#).is_err());
    }
}
