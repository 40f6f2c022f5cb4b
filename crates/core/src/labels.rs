//! Task-label encoding: exact-analysis labels to per-task class vectors.

use gamora_exact::Labels;

/// Classes per task, one head each: root/leaf (4), XOR (2), MAJ (2).
pub const TASK_CLASSES: [usize; 3] = [4, 2, 2];

/// Converts exact labels into three per-node class vectors, one per task.
pub fn task_targets(labels: &Labels) -> Vec<Vec<u32>> {
    let n = labels.num_nodes();
    let mut t1 = Vec::with_capacity(n);
    let mut t2 = Vec::with_capacity(n);
    let mut t3 = Vec::with_capacity(n);
    for i in 0..n {
        t1.push(labels.root_leaf[i].as_index() as u32);
        t2.push(labels.is_xor[i] as u32);
        t3.push(labels.is_maj[i] as u32);
    }
    vec![t1, t2, t3]
}

#[cfg(test)]
mod tests {
    use super::*;
    use gamora_circuits::csa_multiplier;

    #[test]
    fn target_vectors_cover_every_node() {
        let m = csa_multiplier(4);
        let analysis = gamora_exact::analyze(&m.aig);
        let targets = task_targets(&analysis.labels);
        assert_eq!(targets.len(), TASK_CLASSES.len());
        for (t, task) in targets.iter().enumerate() {
            assert_eq!(task.len(), m.aig.num_nodes());
            let max = *task.iter().max().unwrap() as usize;
            assert!(max < TASK_CLASSES[t], "task {t} class {max}");
        }
    }

    #[test]
    fn multiplier_has_all_three_positive_classes() {
        let m = csa_multiplier(4);
        let analysis = gamora_exact::analyze(&m.aig);
        let targets = task_targets(&analysis.labels);
        assert!(targets[0].contains(&1), "roots exist");
        assert!(targets[0].contains(&2), "leaves exist");
        assert!(targets[1].contains(&1), "xors exist");
        assert!(targets[2].contains(&1), "majs exist");
    }
}
