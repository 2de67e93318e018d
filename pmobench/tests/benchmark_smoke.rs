//! Every workload at tiny size: one rep, every metric `BENCHMARK.json`
//! lists, a digest that repeats across runs and matches the traced
//! decomposition, and no failed check.

use pmobench::{metric_names, run, Params, Size, Workload};

/// The `name` fields of the objects in the JSON array under `key`.
fn names_in(json: &str, key: &str) -> Vec<String> {
    let after_key = &json[json.find(&format!("\"{key}\"")).expect("key present")..];
    let array = &after_key[after_key.find('[').expect("array")..];
    let array = &array[..array.find(']').expect("array end")];
    array
        .split("\"name\"")
        .skip(1)
        .map(|rest| rest.split('"').nth(1).expect("quoted name").to_string())
        .collect()
}

fn benchmark_json() -> String {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
    std::fs::read_to_string(path).expect("BENCHMARK.json at the repository root")
}

fn tiny(workload: Workload, trace: bool) -> Params {
    Params { workload, seed: workload.default_seed(), seconds: 0.0, trace, size: Size::Tiny }
}

#[test]
fn metric_names_match_benchmark_json() {
    let json = benchmark_json();
    for (key, trace) in [("end_to_end", false), ("per_layer", true)] {
        let printed: Vec<String> = metric_names(trace).into_iter().map(|(name, _)| name).collect();
        assert_eq!(printed, names_in(&json, key), "{key}");
    }
    let workloads = names_in(&json, "workloads");
    assert_eq!(workloads, Workload::ALL.map(|w| w.name().to_string()));
}

#[test]
fn every_workload_runs_clean_and_repeats() {
    for workload in Workload::ALL {
        let first = run(&tiny(workload, false));
        let traced = run(&tiny(workload, true));
        for outcome in [&first, &traced] {
            assert!(outcome.gates.passed(), "{}: {:?}", workload.name(), outcome.gates);
        }
        assert_eq!(first.reps, 1, "{}: a zero budget runs one rep", workload.name());
        // The traced run regenerates and replays everything itself, so an
        // equal digest is the repeat-across-runs check too.
        assert_eq!(first.digest, traced.digest, "{}: traced digest", workload.name());
        let names =
            |o: &pmobench::Outcome| o.metrics.iter().map(|m| m.name.clone()).collect::<Vec<_>>();
        let expected = |trace| metric_names(trace).into_iter().map(|(n, _)| n).collect::<Vec<_>>();
        assert_eq!(names(&first), expected(false));
        assert_eq!(names(&traced), expected(true));
        assert!(
            first.metrics.iter().all(|m| m.value() > 0.0),
            "{}: end-to-end metrics are never 0",
            workload.name()
        );
    }
}
