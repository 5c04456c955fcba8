//! Kernel instrumentation: call and reduction step counters.
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
    /// Calls to `whnf` that were not already in weak head normal form.
    pub whnf_calls: u64,
    /// β-redexes fired (lambda applied to arguments).
    pub beta_steps: u64,
    /// δ-unfoldings of transparent constants. In conversion these are the
    /// *forced* unfoldings: a glued constant whose spine already matches is
    /// never unfolded, and a forced one counts once however often it is
    /// compared. Lazy δ dropped a `paper_corpus` unit from 12 570 to
    /// 3 773, and comparing same-body closures without applying them to
    /// 3 549.
    pub delta_steps: u64,
    /// ι-reductions (eliminator applied to a constructor).
    pub iota_steps: u64,
    /// ζ-reductions (let bindings substituted).
    pub zeta_steps: u64,
    /// Cache generations observed (table flushes caused by `Env` mutation).
    pub invalidations: u64,
    /// Type-checker `infer` entries (one per term node visited).
    pub infer_calls: u64,
    /// Constants `define` admitted without a check because the
    /// environment's admission memo had accepted the same declaration
    /// ([`crate::admission`]).
    pub admission_hits: u64,
}

impl KernelStats {
    /// Field-wise difference against an earlier snapshot.
    pub fn since(&self, earlier: &KernelStats) -> KernelStats {
        KernelStats {
            conv_calls: self.conv_calls - earlier.conv_calls,
            whnf_calls: self.whnf_calls - earlier.whnf_calls,
            beta_steps: self.beta_steps - earlier.beta_steps,
            delta_steps: self.delta_steps - earlier.delta_steps,
            iota_steps: self.iota_steps - earlier.iota_steps,
            zeta_steps: self.zeta_steps - earlier.zeta_steps,
            invalidations: self.invalidations - earlier.invalidations,
            infer_calls: self.infer_calls - earlier.infer_calls,
            admission_hits: self.admission_hits - earlier.admission_hits,
        }
    }

    /// Fieldwise sum — aggregates the counters of several runs into one
    /// total.
    pub fn absorb(&mut self, other: &KernelStats) {
        self.conv_calls += other.conv_calls;
        self.whnf_calls += other.whnf_calls;
        self.beta_steps += other.beta_steps;
        self.delta_steps += other.delta_steps;
        self.iota_steps += other.iota_steps;
        self.zeta_steps += other.zeta_steps;
        self.invalidations += other.invalidations;
        self.infer_calls += other.infer_calls;
        self.admission_hits += other.admission_hits;
    }

    /// Always 0: `whnf` keeps no memo table since it answers from NbE.
    /// Kept only because the repository benchmark still reports it as
    /// `kernel.whnf_hit_ratio`; remove it together with that read.
    pub fn whnf_hit_rate(&self) -> f64 {
        0.0
    }

    /// Total reduction steps of any flavour.
    pub fn reduction_steps(&self) -> u64 {
        self.beta_steps + self.delta_steps + self.iota_steps + self.zeta_steps
    }
}

impl fmt::Display for KernelStats {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "conv {} calls, whnf {} calls, β {} δ {} ι {} ζ {}, {} invalidations",
            self.conv_calls,
            self.whnf_calls,
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
            whnf_calls: 7,
            beta_steps: 3,
            ..Default::default()
        };
        let b = KernelStats {
            conv_calls: 25,
            whnf_calls: 11,
            beta_steps: 8,
            ..Default::default()
        };
        let d = b.since(&a);
        assert_eq!(d.conv_calls, 15);
        assert_eq!(d.whnf_calls, 4);
        assert_eq!(d.beta_steps, 5);
    }

    #[test]
    fn whnf_hit_rate_is_a_zero_stub() {
        let s = KernelStats {
            whnf_calls: 3,
            ..Default::default()
        };
        assert_eq!(s.whnf_hit_rate(), 0.0);
        assert_eq!(
            s.to_string(),
            "conv 0 calls, whnf 3 calls, β 0 δ 0 ι 0 ζ 0, 0 invalidations"
        );
    }
}
