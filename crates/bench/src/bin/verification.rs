//! Numerical verification tables: convergence order and stability margins of
//! the LTS-Newmark implementation (the properties the companion paper \[15\]
//! proves; here they are measured).

use lts_bench::{write_output, Args, Table};
use lts_core::spectral::{exact_stable_dt, is_stable_at};
use lts_core::{Chain1d, LtsNewmark, LtsSetup, Newmark, TwoLevelLts};
use lts_obs::{registry_to_json, MetricsRegistry};

/// Exporter keys: the refinement index / config index / sub-step count `p`
/// rides in the key's `level` slot.
mod names {
    pub const MAX_ERROR: &str = "verify.max_error";
    pub const OBSERVED_ORDER: &str = "verify.observed_order";
    pub const ELEM_OPS: &str = "verify.elem_ops";
    pub const DT_MAX: &str = "verify.dt_max";
    pub const STABLE_BELOW: &str = "verify.stable_below";
    pub const UNSTABLE_ABOVE: &str = "verify.unstable_above";
    pub const P_SWEEP_NORM: &str = "verify.p_sweep_norm";
}

fn convergence_table(reg: &mut MetricsRegistry) {
    // three-level chain; error vs a resolved reference at matching times
    let mut vel = vec![1.0; 24];
    for (i, v) in vel.iter_mut().enumerate() {
        if i >= 20 {
            *v = 4.0;
        } else if i >= 17 {
            *v = 2.0;
        }
    }
    let c = Chain1d::with_velocities(vel, 1.0);
    let (lv, dt0) = c.assign_levels(0.4, 3);
    let setup = LtsSetup::new(&c, &lv);
    let n = 25;
    let u0: Vec<f64> = (0..n)
        .map(|i| (-((i as f64 - 8.0) / 2.5f64).powi(2)).exp())
        .collect();
    let t_end = 8.0 * dt0;

    // resolved reference
    let fine_dt = dt0 / 128.0;
    let mut u_ref = u0.clone();
    let mut v_ref = vec![0.0; n];
    Newmark::stagger_velocity(&c, fine_dt, &u_ref, &mut v_ref, &[]);
    let mut nm = Newmark::new(&c, fine_dt);
    nm.run(
        &mut u_ref,
        &mut v_ref,
        0.0,
        (t_end / fine_dt).round() as usize,
        &[],
    );

    let mut t = Table::new(&["Δt", "steps", "max error", "observed order"]);
    let mut prev: Option<f64> = None;
    for halvings in 0..5 {
        let dt = dt0 / (1 << halvings) as f64;
        let steps = (t_end / dt).round() as usize;
        let mut u = u0.clone();
        let mut v = vec![0.0; n];
        Newmark::stagger_velocity(&c, dt, &u, &mut v, &[]);
        let mut lts = LtsNewmark::new(&c, &setup, dt);
        lts.run(&mut u, &mut v, 0.0, steps, &[]);
        let err: f64 = (0..n).map(|i| (u[i] - u_ref[i]).abs()).fold(0.0, f64::max);
        let order = prev.map(|p: f64| (p / err).log2());
        reg.set_gauge_level(names::MAX_ERROR, halvings as u8, err);
        if let Some(o) = order {
            reg.set_gauge_level(names::OBSERVED_ORDER, halvings as u8, o);
        }
        reg.inc_level(names::ELEM_OPS, halvings as u8, lts.stats.elem_ops);
        t.row(vec![
            format!("{dt:.5}"),
            steps.to_string(),
            format!("{err:.3e}"),
            order.map_or("-".into(), |o| format!("{o:.2}")),
        ]);
        prev = Some(err);
    }
    println!("Convergence of multi-level LTS-Newmark (3 levels, 1-D chain, T = {t_end:.2}):");
    t.print();
    println!("expected order: 2 (Diaz & Grote 2009 / companion paper [15])\n");
}

fn stability_table(reg: &mut MetricsRegistry) {
    let mut t = Table::new(&["system", "exact Δt_max", "probe 0.95×", "probe 1.05×"]);
    let configs: Vec<(&str, Chain1d)> = vec![
        ("uniform chain", Chain1d::uniform(24, 1.0, 1.0)),
        (
            "two-speed chain",
            Chain1d::with_velocities(
                (0..24).map(|i| if i >= 18 { 3.0 } else { 1.0 }).collect(),
                1.0,
            ),
        ),
    ];
    for (i, (name, c)) in configs.into_iter().enumerate() {
        let dt_max = exact_stable_dt(&c, 500);
        let below = is_stable_at(&c, 0.95 * dt_max, 3_000, 1e3);
        let above = is_stable_at(&c, 1.05 * dt_max, 3_000, 1e3);
        reg.set_gauge_level(names::DT_MAX, i as u8, dt_max);
        reg.set_gauge_level(names::STABLE_BELOW, i as u8, f64::from(u8::from(below)));
        reg.set_gauge_level(names::UNSTABLE_ABOVE, i as u8, f64::from(u8::from(!above)));
        t.row(vec![
            name.into(),
            format!("{dt_max:.4}"),
            if below { "stable" } else { "UNSTABLE" }.into(),
            if above { "STABLE?!" } else { "unstable" }.into(),
        ]);
    }
    println!("Explicit-Newmark stability boundary (power iteration vs empirical probe):");
    t.print();
    println!();
}

fn two_level_p_sweep(reg: &mut MetricsRegistry) {
    // ratio-3 refinement: the general-p two-level scheme runs p = 3 exactly,
    // while restricting to powers of two forces p = 4 (extra work)
    let mut vel = vec![1.0; 20];
    for v in vel.iter_mut().skip(14) {
        *v = 3.0;
    }
    let c = Chain1d::with_velocities(vel, 1.0);
    let lv: Vec<u8> = (0..20).map(|e| u8::from(e >= 14)).collect();
    let setup = LtsSetup::new(&c, &lv);
    let dt = 0.85;
    let n = 21;
    let mut t = Table::new(&["p", "fine products/Δt", "stable?"]);
    for p in 1..=4usize {
        let mut u: Vec<f64> = (0..n)
            .map(|i| (-((i as f64 - 7.0) / 2.0f64).powi(2)).exp())
            .collect();
        let mut v = vec![0.0; n];
        let mut two = TwoLevelLts::new(&c, &setup, dt, p);
        two.run(&mut u, &mut v, 0.0, 500, &[]);
        let norm: f64 = u.iter().map(|x| x * x).sum::<f64>().sqrt();
        reg.set_gauge_level(names::P_SWEEP_NORM, p as u8, norm);
        t.row(vec![
            p.to_string(),
            (p * setup.elems[1].len()).to_string(),
            if norm.is_finite() && norm < 100.0 {
                "stable".into()
            } else {
                format!("unstable (‖u‖={norm:.1e})")
            },
        ]);
    }
    println!("Two-level LTS with general p (velocity ratio 3, Δt = {dt}):");
    t.print();
    println!("p = 3 matches the refinement ratio exactly — the power-of-two restriction of the");
    println!("multi-level scheme would over-step (p = 4) at 33% extra fine work.");
}

fn main() {
    let args = Args::parse();
    let json_path: String = args.get("json", "verification_metrics.json".to_string());
    let mut reg = MetricsRegistry::new();
    convergence_table(&mut reg);
    stability_table(&mut reg);
    two_level_p_sweep(&mut reg);
    write_output(&json_path, registry_to_json(&reg).render_pretty());
    println!("\nwrote verification metrics to {json_path}");
}
