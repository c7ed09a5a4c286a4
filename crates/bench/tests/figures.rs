//! Every figure and table binary must pass its paper-vs-measured shape
//! checks: each exits with the number of checks that print `DEVIATES`,
//! so a non-zero exit here names a paper number the models no longer
//! reproduce. The checks here are the widest set and the tightest
//! bands; the model crate's unit tests repeat the main numbers.

use std::process::Command;

fn run(bin: &str) {
    let out = Command::new(bin).output().expect("figure binary runs");
    assert!(
        out.status.success(),
        "{bin} exited with {}:\n{}{}",
        out.status,
        String::from_utf8_lossy(&out.stdout),
        String::from_utf8_lossy(&out.stderr)
    );
}

macro_rules! figure {
    ($($name:ident),* $(,)?) => {$(
        #[test]
        fn $name() {
            run(env!(concat!("CARGO_BIN_EXE_", stringify!($name))));
        }
    )*};
}

figure!(
    ablations,
    fig03_bottlenecks,
    fig09_protocol,
    fig10_breakdown,
    fig11_smallbank,
    fig12_policies,
    fig13_drm,
    table1_resources,
);
