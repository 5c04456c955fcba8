//! Kernel instrumentation: conversion/whnf cache hit rates and reduction
//! step counters.
//!
//! The mirror image of `pumpkin_core::LiftStats` one layer down: where
//! `LiftStats` measures the §4.4 closed-subterm lifting cache, these
//! counters measure the kernel hot paths every lift-cache probe bottoms
//! out in. Counters live on [`crate::env::Env`] (interior-mutable, since
//! `conv`/`whnf` take `&Env`); snapshot them with
//! [`crate::env::Env::kernel_stats`] and subtract snapshots with
//! [`KernelStats::since`] to attribute work to a phase.

use std::fmt;

/// Counters for the kernel's conversion and reduction hot paths.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct KernelStats {
    /// Calls to `conv` (after the `t == u` fast path).
    pub conv_calls: u64,
    /// Conversion results answered from the memo table.
    pub conv_cache_hits: u64,
    /// Conversion results computed and inserted.
    pub conv_cache_misses: u64,
    /// Calls to `whnf` that were not already in weak head normal form.
    pub whnf_calls: u64,
    /// Weak head normal forms answered from the memo table.
    pub whnf_cache_hits: u64,
    /// Weak head normal forms computed and inserted.
    pub whnf_cache_misses: u64,
    /// β-redexes fired (lambda applied to arguments).
    pub beta_steps: u64,
    /// δ-unfoldings of transparent constants.
    pub delta_steps: u64,
    /// ι-reductions (eliminator applied to a constructor).
    pub iota_steps: u64,
    /// ζ-reductions (let bindings substituted).
    pub zeta_steps: u64,
    /// Cache generations observed (table flushes caused by `Env` mutation).
    pub invalidations: u64,
    /// Type-checker `infer` entries (one per term node visited).
    pub infer_calls: u64,
}

impl KernelStats {
    /// Field-wise difference against an earlier snapshot.
    pub fn since(&self, earlier: &KernelStats) -> KernelStats {
        KernelStats {
            conv_calls: self.conv_calls - earlier.conv_calls,
            conv_cache_hits: self.conv_cache_hits - earlier.conv_cache_hits,
            conv_cache_misses: self.conv_cache_misses - earlier.conv_cache_misses,
            whnf_calls: self.whnf_calls - earlier.whnf_calls,
            whnf_cache_hits: self.whnf_cache_hits - earlier.whnf_cache_hits,
            whnf_cache_misses: self.whnf_cache_misses - earlier.whnf_cache_misses,
            beta_steps: self.beta_steps - earlier.beta_steps,
            delta_steps: self.delta_steps - earlier.delta_steps,
            iota_steps: self.iota_steps - earlier.iota_steps,
            zeta_steps: self.zeta_steps - earlier.zeta_steps,
            invalidations: self.invalidations - earlier.invalidations,
            infer_calls: self.infer_calls - earlier.infer_calls,
        }
    }

    /// Fieldwise sum — aggregates the counters of several runs into one
    /// total.
    pub fn absorb(&mut self, other: &KernelStats) {
        self.conv_calls += other.conv_calls;
        self.conv_cache_hits += other.conv_cache_hits;
        self.conv_cache_misses += other.conv_cache_misses;
        self.whnf_calls += other.whnf_calls;
        self.whnf_cache_hits += other.whnf_cache_hits;
        self.whnf_cache_misses += other.whnf_cache_misses;
        self.beta_steps += other.beta_steps;
        self.delta_steps += other.delta_steps;
        self.iota_steps += other.iota_steps;
        self.zeta_steps += other.zeta_steps;
        self.invalidations += other.invalidations;
        self.infer_calls += other.infer_calls;
    }

    /// Fraction of non-trivial `conv` calls answered by the memo table.
    pub fn conv_hit_rate(&self) -> f64 {
        ratio(
            self.conv_cache_hits,
            self.conv_cache_hits + self.conv_cache_misses,
        )
    }

    /// Fraction of non-trivial `whnf` calls answered by the memo table.
    pub fn whnf_hit_rate(&self) -> f64 {
        ratio(
            self.whnf_cache_hits,
            self.whnf_cache_hits + self.whnf_cache_misses,
        )
    }

    /// Total reduction steps of any flavour.
    pub fn reduction_steps(&self) -> u64 {
        self.beta_steps + self.delta_steps + self.iota_steps + self.zeta_steps
    }
}

fn ratio(num: u64, den: u64) -> f64 {
    if den == 0 {
        0.0
    } else {
        num as f64 / den as f64
    }
}

impl fmt::Display for KernelStats {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "conv {}/{} hits ({:.1}%), whnf {}/{} hits ({:.1}%), \
             β {} δ {} ι {} ζ {}, {} invalidations",
            self.conv_cache_hits,
            self.conv_cache_hits + self.conv_cache_misses,
            100.0 * self.conv_hit_rate(),
            self.whnf_cache_hits,
            self.whnf_cache_hits + self.whnf_cache_misses,
            100.0 * self.whnf_hit_rate(),
            self.beta_steps,
            self.delta_steps,
            self.iota_steps,
            self.zeta_steps,
            self.invalidations,
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn since_subtracts_fieldwise() {
        let a = KernelStats {
            conv_calls: 10,
            conv_cache_hits: 4,
            whnf_calls: 7,
            beta_steps: 3,
            ..Default::default()
        };
        let b = KernelStats {
            conv_calls: 25,
            conv_cache_hits: 9,
            whnf_calls: 11,
            beta_steps: 8,
            ..Default::default()
        };
        let d = b.since(&a);
        assert_eq!(d.conv_calls, 15);
        assert_eq!(d.conv_cache_hits, 5);
        assert_eq!(d.whnf_calls, 4);
        assert_eq!(d.beta_steps, 5);
    }

    #[test]
    fn hit_rates_handle_zero_denominator() {
        let s = KernelStats::default();
        assert_eq!(s.conv_hit_rate(), 0.0);
        assert_eq!(s.whnf_hit_rate(), 0.0);
        let s = KernelStats {
            whnf_cache_hits: 3,
            whnf_cache_misses: 1,
            ..Default::default()
        };
        assert_eq!(s.whnf_hit_rate(), 0.75);
    }
}
