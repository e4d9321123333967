//! Network hyperparameters, defaulting to the paper's Table 4 values
//! (BindsNet `DiehlAndCook2015` initialization).

/// Leaky-integrate-and-fire parameters for one neuron population.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct LifConfig {
    /// Resting potential the membrane decays toward (mV).
    pub v_rest: f32,
    /// Potential after a spike (mV).
    pub v_reset: f32,
    /// Base firing threshold (mV); excitatory neurons add an adaptive
    /// `theta` on top.
    pub v_thresh: f32,
    /// Membrane decay time constant (ticks).
    pub tc_decay: f32,
    /// Refractory period after a spike (ticks).
    pub refractory: u32,
}

impl LifConfig {
    /// Diehl & Cook excitatory-population parameters.
    pub const fn excitatory() -> Self {
        LifConfig {
            v_rest: -65.0,
            v_reset: -60.0,
            v_thresh: -52.0,
            tc_decay: 100.0,
            refractory: 5,
        }
    }

    /// Diehl & Cook inhibitory-population parameters.
    pub const fn inhibitory() -> Self {
        LifConfig {
            v_rest: -60.0,
            v_reset: -45.0,
            v_thresh: -40.0,
            tc_decay: 10.0,
            refractory: 2,
        }
    }
}

/// STDP learning-rule parameters (BindsNet `PostPre` with normalization).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct StdpConfig {
    /// Learning rate for pre-before-post potentiation (applied on the
    /// postsynaptic spike).
    pub nu_post: f32,
    /// Learning rate for post-before-pre depression (applied on the
    /// presynaptic spike).
    pub nu_pre: f32,
    /// Decay time constant of the pre/post eligibility traces (ticks).
    pub tc_trace: f32,
    /// Maximum synaptic weight.
    pub w_max: f32,
    /// Per-neuron incoming-weight sum after normalization (Table 4: 38.4).
    pub norm: f32,
}

impl Default for StdpConfig {
    fn default() -> Self {
        StdpConfig {
            // Diehl & Cook's MNIST rates; fast enough for few-shot pattern
            // recruitment while slow enough that the leading neuron keeps a
            // weight margin over its rivals (which keeps the 1-tick argmax
            // aligned with the stochastic winner, Table 1).
            nu_post: 1e-2,
            nu_pre: 1e-4,
            tc_trace: 20.0,
            w_max: 1.0,
            norm: 38.4,
        }
    }
}

/// Full network configuration (Table 4 defaults).
///
/// # Examples
///
/// ```
/// use pathfinder_snn::SnnConfig;
///
/// let cfg = SnnConfig::default();
/// assert_eq!(cfg.n_input, 128 * 3);
/// assert_eq!(cfg.n_exc, 50);
/// assert_eq!(cfg.ticks, 32);
/// ```
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SnnConfig {
    /// Input-layer size. Table 4: `D x H` with `D = 128`, `H = 3`.
    pub n_input: usize,
    /// Excitatory (and matching inhibitory) neuron count. Table 4: 50.
    pub n_exc: usize,
    /// Excitatory→inhibitory one-to-one weight. Table 4: `exc = 20.5`.
    pub exc_strength: f32,
    /// Inhibitory→excitatory lateral weight magnitude. Table 4: `inh = 17.5`.
    pub inh_strength: f32,
    /// Ticks per input presentation. Table 4: 32.
    pub ticks: u32,
    /// Per-tick spike probability of a fully-on input pixel (Poisson rate
    /// coding intensity).
    pub max_rate: f32,
    /// Synaptic current per unit weight per input spike. BindsNet folds this
    /// into its intensity scaling; pulling it out lets the paper-reported
    /// Table 4 weights (`norm = 38.4` over 384 inputs) drive a 50-neuron
    /// population to threshold within a 32-tick interval.
    pub input_gain: f32,
    /// Excitatory-population LIF parameters.
    pub exc_lif: LifConfig,
    /// Inhibitory-population LIF parameters.
    pub inh_lif: LifConfig,
    /// Adaptive-threshold increment per excitatory spike. Table 4: 0.05.
    pub theta_plus: f32,
    /// Adaptive-threshold decay time constant (ticks). Diehl & Cook use
    /// 1e7 (effectively no decay) because MNIST training is short; a
    /// continuously-learning prefetcher needs theta to *equilibrate*, or a
    /// busy neuron's threshold grows without bound and the population goes
    /// silent. At 1e4 ticks a constantly-winning neuron saturates near
    /// `theta ~= 45` — low enough that its concentrated weights still fire
    /// it within a few ticks (so it keeps its patterns), high enough that
    /// fresh patterns recruit unclaimed neurons.
    pub tc_theta_decay: f32,
    /// STDP parameters.
    pub stdp: StdpConfig,
}

impl Default for SnnConfig {
    fn default() -> Self {
        SnnConfig {
            n_input: 128 * 3,
            n_exc: 50,
            exc_strength: 20.5,
            inh_strength: 17.5,
            ticks: 32,
            max_rate: 0.95,
            input_gain: 2.1,
            exc_lif: LifConfig::excitatory(),
            inh_lif: LifConfig::inhibitory(),
            theta_plus: 0.05,
            tc_theta_decay: 1e4,
            stdp: StdpConfig::default(),
        }
    }
}

impl SnnConfig {
    /// Validates internal consistency.
    ///
    /// # Errors
    ///
    /// Returns a description of the first violated constraint.
    pub fn validate(&self) -> Result<(), String> {
        if self.n_input == 0 {
            return Err("n_input must be positive".into());
        }
        if self.n_exc == 0 {
            return Err("n_exc must be positive".into());
        }
        if self.ticks == 0 {
            return Err("ticks must be positive".into());
        }
        if !(0.0..=1.0).contains(&self.max_rate) {
            return Err(format!("max_rate {} must be in [0,1]", self.max_rate));
        }
        if self.input_gain <= 0.0 {
            return Err("input_gain must be positive".into());
        }
        if self.stdp.w_max <= 0.0 {
            return Err("w_max must be positive".into());
        }
        if self.stdp.norm <= 0.0 {
            return Err("norm must be positive".into());
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn table4_defaults() {
        let c = SnnConfig::default();
        assert_eq!(c.n_input, 384);
        assert_eq!(c.n_exc, 50);
        assert!((c.exc_strength - 20.5).abs() < f32::EPSILON);
        assert!((c.inh_strength - 17.5).abs() < f32::EPSILON);
        assert!((c.stdp.norm - 38.4).abs() < f32::EPSILON);
        assert!((c.theta_plus - 0.05).abs() < f32::EPSILON);
        assert_eq!(c.ticks, 32);
        assert!(c.validate().is_ok());
    }

    #[test]
    fn validation_catches_bad_configs() {
        let c = SnnConfig {
            n_exc: 0,
            ..SnnConfig::default()
        };
        assert!(c.validate().is_err());

        let c = SnnConfig {
            max_rate: 1.5,
            ..SnnConfig::default()
        };
        assert!(c.validate().is_err());

        let mut c = SnnConfig::default();
        c.stdp.norm = 0.0;
        assert!(c.validate().is_err());
    }

    #[test]
    fn diehl_cook_populations_differ() {
        let e = LifConfig::excitatory();
        let i = LifConfig::inhibitory();
        assert!(e.v_thresh < i.v_thresh + 100.0); // both sane mV values
        assert_ne!(e.v_rest, i.v_rest);
        assert!(e.tc_decay > i.tc_decay);
    }
}
