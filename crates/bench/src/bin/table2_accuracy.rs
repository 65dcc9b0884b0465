//! Table II: test accuracy of the six methods across datasets, heterogeneity
//! settings and model families.
//!
//! The default run covers the CNN image rows plus the two LSTM text rows at
//! reduced scale; `--all-models` adds ResNet-20 and VGG-16 rows, `--quick`
//! restricts to CIFAR-10 (β=0.1 and IID), and `--full` switches to the
//! paper-scale federation. Usage:
//!
//! ```text
//! cargo run -p fedcross-bench --release --bin table2_accuracy [--rounds N] [--quick] [--all-models]
//! ```

use fedcross_bench::report::{format_mean_std, print_header, print_row, write_json};
use fedcross_bench::{build_model, build_task, run_method_on, Args, ExperimentConfig, ModelSpec, TaskSpec};
use fedcross_data::Heterogeneity;

fn main() {
    let args = Args::from_env();
    let config = args.apply(ExperimentConfig::default());

    let image_tasks: Vec<TaskSpec> = if args.flag("--quick") {
        vec![
            TaskSpec::Cifar10(Heterogeneity::Dirichlet(0.1)),
            TaskSpec::Cifar10(Heterogeneity::Iid),
        ]
    } else {
        vec![
            TaskSpec::Cifar10(Heterogeneity::Dirichlet(0.1)),
            TaskSpec::Cifar10(Heterogeneity::Dirichlet(0.5)),
            TaskSpec::Cifar10(Heterogeneity::Dirichlet(1.0)),
            TaskSpec::Cifar10(Heterogeneity::Iid),
            TaskSpec::Cifar100(Heterogeneity::Dirichlet(0.5)),
            TaskSpec::Femnist,
        ]
    };
    let image_models: Vec<ModelSpec> = if args.flag("--all-models") {
        vec![ModelSpec::Cnn, ModelSpec::ResNet20, ModelSpec::Vgg16]
    } else {
        vec![ModelSpec::Cnn]
    };
    let text_tasks: Vec<TaskSpec> = if args.flag("--quick") {
        Vec::new()
    } else {
        vec![TaskSpec::Shakespeare, TaskSpec::Sent140]
    };

    let methods = fedcross_bench::scaled_lineup();

    println!("Table II — Test accuracy (%) comparison (mean ± std over the last evaluations)");
    println!(
        "(reduced scale: {} clients, K={}, {} rounds, {} samples/client — see docs/DESIGN.md §3, Reproduction scale)\n",
        config.num_clients, config.clients_per_round, config.rounds, config.samples_per_client
    );

    let mut header = vec![("Model", 10), ("Dataset", 22)];
    for m in &methods {
        header.push((m.label(), 16));
    }
    print_header(&header);

    let mut json_rows = Vec::new();
    let mut cases: Vec<(ModelSpec, TaskSpec)> = Vec::new();
    for model in &image_models {
        for task in &image_tasks {
            cases.push((*model, *task));
        }
    }
    for task in &text_tasks {
        cases.push((ModelSpec::Lstm, *task));
    }

    for (model, task) in cases {
        let data = build_task(task, &config, config.seed);
        let mut cells = vec![
            (model.label().to_string(), 10),
            (task.label(), 22),
        ];
        let mut row_json = serde_json::json!({
            "model": model.label(),
            "task": task.label(),
        });
        let mut best: Option<(String, f32)> = None;
        for spec in &methods {
            let template = build_model(model, &data, config.seed.wrapping_add(1));
            let outcome =
                run_method_on(*spec, &data, template, &config, &task.label(), model.label());
            let (mean, std) = outcome.accuracy_mean_std();
            cells.push((format_mean_std(mean, std), 16));
            row_json[spec.label()] = serde_json::json!({ "mean": mean, "std": std });
            if best.as_ref().map(|(_, b)| mean > *b).unwrap_or(true) {
                best = Some((spec.label().to_string(), mean));
            }
        }
        if let Some((winner, acc)) = &best {
            row_json["winner"] = serde_json::json!({ "method": winner, "mean": acc });
        }
        print_row(&cells);
        json_rows.push(row_json);
    }

    write_json("table2_accuracy.json", &json_rows);
    println!("\nPaper shape to check: FedCross has the highest accuracy in every row.");
}
