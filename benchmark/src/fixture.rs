//! The benchmark's inputs: the BSBM store, its curated parameter classes,
//! the curated requests drawn from them and each request's oracle answer.

use std::sync::Arc;
use std::time::Instant;

use parambench_core::{curate, CuratedWorkload, CurationConfig, ParameterDomain};
use parambench_datagen::bsbm::schema;
use parambench_datagen::{Bsbm, BsbmConfig};
use parambench_rdf::{Dataset, StoreBuilder, Term};
use parambench_sparql::engine::QueryOutput;
use parambench_sparql::{Binding, Engine, QueryTemplate};

use crate::summary;

/// Approximate triples of the default BSBM store (127,346 triples).
pub const SCALE: usize = 150_000;

/// Bindings drawn from every curated class.
pub const PER_CLASS: usize = 16;

/// splitmix64: derives independent seeds from the run seed.
pub fn mix(seed: u64, salt: u64) -> u64 {
    let mut z = seed ^ salt.wrapping_mul(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// Fisher–Yates shuffle driven by [`mix`].
pub fn shuffle<T>(items: &mut [T], seed: u64) {
    for i in (1..items.len()).rev() {
        let j = (mix(seed, i as u64) % (i as u64 + 1)) as usize;
        items.swap(i, j);
    }
}

/// One curated request: a binding drawn from one class of one template.
#[derive(Debug, Clone, PartialEq)]
pub struct Request {
    /// Index into [`Fixture::templates`].
    pub template: usize,
    /// Curated class id within that template.
    pub class: usize,
    /// The drawn binding.
    pub binding: Binding,
}

/// A request's oracle: a private [`Engine::execute`] on the same store.
#[derive(Debug, Clone)]
pub struct Expected {
    /// Rows, in order, plus the exact counters.
    pub output: QueryOutput,
    /// The optimizer's estimated `Cout` for the binding.
    pub est_cout: f64,
}

/// Exact execution counters, summed over a fixed set of reads.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Counters {
    pub cout: u64,
    pub scanned: u64,
    pub rows: u64,
    pub peak_tuples: u64,
    pub sorted_rows: u64,
    pub build_rows: u64,
    pub spilled_rows: u64,
}

impl Counters {
    /// Adds one read's counters.
    pub fn add(&mut self, out: &QueryOutput) {
        self.cout += out.cout;
        self.scanned += out.stats.scanned;
        self.rows += out.results.len() as u64;
        self.peak_tuples += out.stats.peak_tuples;
        self.sorted_rows += out.stats.sorted_rows;
        self.build_rows += out.stats.build_rows;
        self.spilled_rows += out.stats.spilled_rows;
    }

    /// Adds another set's totals.
    pub fn merge(&mut self, o: &Counters) {
        self.cout += o.cout;
        self.scanned += o.scanned;
        self.rows += o.rows;
        self.peak_tuples += o.peak_tuples;
        self.sorted_rows += o.sorted_rows;
        self.build_rows += o.build_rows;
        self.spilled_rows += o.spilled_rows;
    }
}

/// The correctness gate of one read: rows and row order, `Cout` and
/// `scanned` must equal the oracle's.
pub fn matches(expected: &QueryOutput, served: &QueryOutput) -> bool {
    expected.results.rows == served.results.rows
        && expected.cout == served.cout
        && expected.stats.scanned == served.stats.scanned
}

/// Everything a workload's set-up produces before its server exists.
pub struct Fixture {
    /// The generated store, shared with the servers built over it.
    pub store: Arc<Dataset>,
    /// The generator's configuration and type tree, which the mixed
    /// read/write script is drawn from; its own dataset has been moved
    /// into `store`.
    pub bsbm: Bsbm,
    pub templates: Vec<QueryTemplate>,
    pub curated: Vec<CuratedWorkload>,
    /// Distinct curated requests, in draw order.
    pub requests: Vec<Request>,
    /// Oracle per request.
    pub expected: Vec<Expected>,
    /// `Bsbm::generate` wall time.
    pub generate_ms: f64,
    /// `curate` wall time, all templates.
    pub curate_ms: f64,
}

/// The six BSBM templates with the parameter domains `parambench curate`
/// builds for them.
fn templates_and_domains(bsbm: &Bsbm) -> Vec<(QueryTemplate, ParameterDomain)> {
    let types = bsbm.type_iris();
    let features: Vec<Term> = (0..bsbm.types.len() * bsbm.config.features_per_type)
        .map(|i| Term::iri(schema::feature(i)))
        .collect();
    let by_type = || ParameterDomain::single("type", types.clone());
    vec![
        (Bsbm::q2_similar_products(), ParameterDomain::single("product", bsbm.product_iris())),
        (Bsbm::q4_feature_price_by_type(), by_type()),
        (Bsbm::q_cheapest_products_of_type(), by_type()),
        (Bsbm::q_catalog_of_type(), by_type()),
        (Bsbm::q_rating_by_type(), by_type()),
        (
            Bsbm::q_type_feature_offers(),
            ParameterDomain::new().with("type", types.clone()).with("feature", features),
        ),
    ]
}

impl Fixture {
    /// Generates the store at `scale`, curates every template and draws
    /// [`PER_CLASS`] bindings from each class, seeded by `seed`.
    pub fn build(scale: usize, seed: u64) -> Result<Fixture, String> {
        let t0 = Instant::now();
        let mut bsbm = Bsbm::generate(BsbmConfig::with_scale(scale));
        let generate_ms = t0.elapsed().as_secs_f64() * 1e3;
        let store =
            Arc::new(std::mem::replace(&mut bsbm.dataset, StoreBuilder::new().freeze_in_memory()));

        let engine = Engine::new(&store);
        let t0 = Instant::now();
        let mut templates = Vec::new();
        let mut curated = Vec::new();
        for (template, domain) in templates_and_domains(&bsbm) {
            let workload = curate(&engine, &template, &domain, &CurationConfig::default())
                .map_err(|e| format!("curating {}: {e}", template.name()))?;
            templates.push(template);
            curated.push(workload);
        }
        let curate_ms = t0.elapsed().as_secs_f64() * 1e3;

        let mut requests = Vec::new();
        for (t, workload) in curated.iter().enumerate() {
            for class in workload.classes() {
                let draw_seed = mix(seed, (t as u64) << 32 | class.id as u64);
                let drawn = workload
                    .sample_class(class.id, PER_CLASS, draw_seed)
                    .map_err(|e| format!("sampling {}: {e}", templates[t].name()))?;
                for binding in drawn {
                    let request = Request { template: t, class: class.id, binding };
                    if !requests.contains(&request) {
                        requests.push(request);
                    }
                }
            }
        }
        let mut expected = Vec::with_capacity(requests.len());
        for r in &requests {
            let prepared = engine
                .prepare_template(&templates[r.template], &r.binding)
                .map_err(|e| format!("oracle prepare {}: {e}", templates[r.template].name()))?;
            let output = engine
                .execute(&prepared)
                .map_err(|e| format!("oracle execute {}: {e}", templates[r.template].name()))?;
            expected.push(Expected { output, est_cout: prepared.est_cout });
        }
        drop(engine);
        Ok(Fixture { store, bsbm, templates, curated, requests, expected, generate_ms, curate_ms })
    }

    /// Curated classes over all templates.
    pub fn classes(&self) -> usize {
        self.curated.iter().map(|w| w.classes().len()).sum()
    }

    /// Bindings the curation profiled (retained and dropped).
    pub fn bindings_profiled(&self) -> usize {
        self.curated.iter().map(|w| w.clustering().retained() + w.clustering().dropped.len()).sum()
    }

    /// Oracle execution times (ms) and q-errors of one (template, class)'s
    /// drawn requests.
    fn class_samples(&self, template: usize, class: usize) -> (Vec<f64>, Vec<f64>) {
        (0..self.requests.len())
            .filter(|&i| self.requests[i].template == template && self.requests[i].class == class)
            .map(|i| (self.exec_ms(i), self.qerror(i)))
            .unzip()
    }

    /// The paper's diagnostics over the oracle executions: the largest
    /// within-class runtime coefficient of variation, Pearson(Cout,
    /// runtime), and the median and largest per-class q-error.
    pub fn diagnostics(&self) -> Diagnostics {
        let mut cv_max: f64 = 0.0;
        let mut class_qerrors = Vec::new();
        for (t, workload) in self.curated.iter().enumerate() {
            for class in workload.classes() {
                let (ms, q) = self.class_samples(t, class.id);
                if let Some(cv) = summary::cv(&ms) {
                    cv_max = cv_max.max(cv);
                }
                class_qerrors.push(summary::median(&q));
            }
        }
        let couts: Vec<f64> = self.expected.iter().map(|e| e.output.cout as f64).collect();
        let runtimes: Vec<f64> = (0..self.expected.len()).map(|i| self.exec_ms(i)).collect();
        Diagnostics {
            class_runtime_cv_max: cv_max,
            pearson_cout_runtime: parambench_stats::correlation::pearson(&couts, &runtimes)
                .unwrap_or(0.0),
            qerror_p50: summary::median(&class_qerrors),
            qerror_max: class_qerrors.iter().copied().fold(0.0, f64::max),
        }
    }

    /// Oracle execution time of request `i`, milliseconds.
    pub fn exec_ms(&self, i: usize) -> f64 {
        self.expected[i].output.wall_time.as_secs_f64() * 1e3
    }

    /// Q-error of request `i`'s estimated against its measured `Cout`.
    pub fn qerror(&self, i: usize) -> f64 {
        summary::qerror(self.expected[i].est_cout, self.expected[i].output.cout as f64)
    }

    /// The per-class report: q-error and runtime median, p90 and a
    /// bootstrap interval of the median per (template, curated class) —
    /// the paper's P1–P3 applied to this benchmark's own parameters.
    pub fn class_report(&self, seed: u64) -> Vec<String> {
        let mut lines = vec![
            "class-report template class members drawn qerror_p50 runtime_p50_ms runtime_p90_ms \
             runtime_p50_ci95_ms"
                .to_string(),
        ];
        for (t, workload) in self.curated.iter().enumerate() {
            for class in workload.classes() {
                let (ms, q) = self.class_samples(t, class.id);
                let ci = summary::median_ci(&ms, mix(seed, class.id as u64))
                    .map_or_else(|| "-".to_string(), |c| format!("[{:.4},{:.4}]", c.lo, c.hi));
                lines.push(format!(
                    "class-report {} {} {} {} {:.3} {:.4} {:.4} {ci}",
                    self.templates[t].name(),
                    class.id,
                    class.len(),
                    ms.len(),
                    summary::median(&q),
                    summary::median(&ms),
                    summary::quantile(&ms, 0.9),
                ));
            }
        }
        lines
    }
}

/// See [`Fixture::diagnostics`].
#[derive(Debug, Clone, Copy)]
pub struct Diagnostics {
    pub class_runtime_cv_max: f64,
    pub pearson_cout_runtime: f64,
    pub qerror_p50: f64,
    pub qerror_max: f64,
}
