//! Full-batch multi-task training over one or more labelled graphs.

use crate::adam::Adam;
use crate::graph::Graph;
use crate::loss::{accuracy, nll_loss};
use crate::model::{MultiTaskSage, Tape};
use crate::tensor::Matrix;

/// One labelled graph: structure, node features, and per-task targets.
#[derive(Clone, Debug)]
pub struct GraphData {
    /// Message-passing structure.
    pub graph: Graph,
    /// `num_nodes x in_dim` node features.
    pub features: Matrix,
    /// Per task: one class index per node.
    pub labels: Vec<Vec<u32>>,
}

impl GraphData {
    /// Validates internal consistency (row counts, label ranges are checked
    /// lazily by the loss).
    ///
    /// # Panics
    ///
    /// Panics if features or labels do not cover every node.
    pub fn validate(&self, num_tasks: usize) {
        assert_eq!(self.features.rows(), self.graph.num_nodes());
        assert_eq!(self.labels.len(), num_tasks);
        for l in &self.labels {
            assert_eq!(l.len(), self.graph.num_nodes());
        }
    }
}

/// Training hyper-parameters.
#[derive(Clone, Debug)]
pub struct TrainConfig {
    /// Number of passes over the training set.
    pub epochs: usize,
    /// Adam learning rate.
    pub lr: f32,
    /// Per-task loss weights — the paper uses α=0.8 (root/leaf), β=γ=1
    /// (XOR, MAJ).
    pub task_weights: Vec<f32>,
    /// Print a progress line every `log_every` epochs (0 = silent).
    pub log_every: usize,
}

impl Default for TrainConfig {
    fn default() -> Self {
        TrainConfig {
            epochs: 120,
            lr: 8e-3,
            task_weights: vec![0.8, 1.0, 1.0],
            log_every: 0,
        }
    }
}

/// Outcome of a training run.
#[derive(Clone, Debug)]
pub struct TrainReport {
    /// Summed multi-task loss per epoch (averaged over graphs).
    pub epoch_losses: Vec<f32>,
    /// Final per-task accuracy on the training set.
    pub train_accuracy: Vec<f64>,
}

/// What training carries from step to step: the optimiser's moments, the
/// activation and gradient workspace, and the per-task logit gradients.
/// Once its buffers have grown to the largest training graph, a
/// [`Trainer::epoch`] allocates nothing.
#[derive(Clone, Debug)]
pub struct Trainer {
    opt: Adam,
    task_weights: Vec<f32>,
    tape: Tape,
    grads: Vec<Matrix>,
}

impl Trainer {
    /// A trainer with `cfg`'s learning rate and task weights.
    pub fn new(cfg: &TrainConfig) -> Trainer {
        Trainer {
            opt: Adam::new(cfg.lr),
            task_weights: cfg.task_weights.clone(),
            tape: Tape::default(),
            grads: vec![Matrix::default(); cfg.task_weights.len()],
        }
    }

    /// One pass over `data`, a full-batch gradient step of `model` per
    /// graph; returns the weighted multi-task loss each graph had before
    /// its step, averaged over the graphs.
    ///
    /// # Panics
    ///
    /// Panics if a graph or the task weights are inconsistent with the
    /// model's task count.
    pub fn epoch(&mut self, model: &mut MultiTaskSage, data: &[GraphData]) -> f32 {
        assert_eq!(
            self.task_weights.len(),
            model.num_tasks(),
            "one loss weight per task count"
        );
        let mut total = 0.0f32;
        for d in data {
            model.zero_grad();
            let logits = model.forward_train(&d.graph, &d.features, &mut self.tape);
            for (t, l) in logits.iter().enumerate() {
                total += nll_loss(l, &d.labels[t], self.task_weights[t], &mut self.grads[t]);
            }
            model.backward(&d.graph, &d.features, &mut self.grads, &mut self.tape);
            self.opt.step(|update| model.visit_param_grads(update));
        }
        total / data.len().max(1) as f32
    }
}

/// Trains `model` full-batch on the given graphs.
///
/// # Panics
///
/// Panics if a dataset entry is inconsistent with the model's task count
/// or the weight vector length differs from the task count.
pub fn train(model: &mut MultiTaskSage, data: &[GraphData], cfg: &TrainConfig) -> TrainReport {
    assert!(!data.is_empty(), "training set must be non-empty");
    for d in data {
        d.validate(model.num_tasks());
    }
    // The trainer owns the training state: the model itself stays
    // immutable through every forward pass.
    let mut trainer = Trainer::new(cfg);
    let mut epoch_losses = Vec::with_capacity(cfg.epochs);
    for epoch in 0..cfg.epochs {
        let avg = trainer.epoch(model, data);
        epoch_losses.push(avg);
        if cfg.log_every > 0 && (epoch + 1) % cfg.log_every == 0 {
            eprintln!("epoch {:4}  loss {avg:.4}", epoch + 1);
        }
    }
    TrainReport {
        epoch_losses,
        train_accuracy: evaluate(model, data),
    }
}

/// Per-task accuracy of `model` averaged over `data` (node-weighted).
pub fn evaluate(model: &MultiTaskSage, data: &[GraphData]) -> Vec<f64> {
    let mut correct = vec![0.0f64; model.num_tasks()];
    let mut total_nodes = 0usize;
    for d in data {
        let logits = model.forward(&d.graph, &d.features);
        for (t, l) in logits.iter().enumerate() {
            correct[t] += accuracy(l, &d.labels[t]) * d.graph.num_nodes() as f64;
        }
        total_nodes += d.graph.num_nodes();
    }
    correct
        .into_iter()
        .map(|c| c / total_nodes.max(1) as f64)
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::graph::Direction;
    use crate::model::{ModelConfig, MultiTaskSage};

    /// A toy two-class problem the model must overfit: nodes with feature
    /// bit 0 set are class 1 for task A; nodes with an odd number of
    /// neighbors are class 1 for task B.
    fn toy_data() -> GraphData {
        let n = 24;
        let mut edges = Vec::new();
        for i in 0..(n as u32 - 1) {
            edges.push((i, i + 1));
            if i % 3 == 0 && i + 2 < n as u32 {
                edges.push((i, i + 2));
            }
        }
        let graph = Graph::from_edges(n, &edges, Direction::Bidirectional);
        let mut features = Matrix::zeros(n, 3);
        let mut la = Vec::new();
        let mut lb = Vec::new();
        for v in 0..n {
            if v % 2 == 0 {
                features.set(v, 0, 1.0);
            }
            features.set(v, 1, (v % 3) as f32 * 0.5);
            la.push((v % 2 == 0) as u32);
            lb.push((graph.neighbors(v).len() % 2) as u32);
        }
        GraphData {
            graph,
            features,
            labels: vec![la, lb],
        }
    }

    #[test]
    fn training_overfits_toy_problem() {
        let data = vec![toy_data()];
        let mut model = MultiTaskSage::new(ModelConfig {
            in_dim: 3,
            hidden: 16,
            layers: 3,
            shared_dim: 16,
            task_classes: vec![2, 2],
            seed: 3,
        });
        let cfg = TrainConfig {
            epochs: 200,
            lr: 1e-2,
            task_weights: vec![1.0, 1.0],
            log_every: 0,
        };
        let report = train(&mut model, &data, &cfg);
        assert!(
            report.epoch_losses.last().unwrap() < &0.2,
            "loss {:?}",
            report.epoch_losses.last()
        );
        assert!(
            report.train_accuracy.iter().all(|&a| a > 0.95),
            "accuracy {:?}",
            report.train_accuracy
        );
    }

    #[test]
    fn evaluate_untrained_is_poorish() {
        let data = vec![toy_data()];
        let model = MultiTaskSage::new(ModelConfig {
            in_dim: 3,
            hidden: 8,
            layers: 2,
            shared_dim: 8,
            task_classes: vec![2, 2],
            seed: 5,
        });
        let acc = evaluate(&model, &data);
        assert_eq!(acc.len(), 2);
        assert!(acc.iter().all(|&a| (0.0..=1.0).contains(&a)));
    }

    #[test]
    #[should_panic(expected = "task count")]
    fn weight_count_validated() {
        let data = vec![toy_data()];
        let mut model = MultiTaskSage::new(ModelConfig {
            in_dim: 3,
            hidden: 4,
            layers: 1,
            shared_dim: 4,
            task_classes: vec![2, 2],
            seed: 1,
        });
        let cfg = TrainConfig {
            task_weights: vec![1.0],
            ..TrainConfig::default()
        };
        let _ = train(&mut model, &data, &cfg);
    }
}
