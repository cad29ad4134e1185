"""Scenario: a clinic publishes an anonymized diabetes cohort.

Run with::

    python examples/medical_records_release.py

The Pima Indian twin plays the part of a sensitive clinical data set.
The clinic wants external researchers to train diagnostic models, but
no patient record may leave the premises.  The workflow:

1. choose an indistinguishability level k by sweeping the
   privacy-utility trade-off (disclosure risk vs model accuracy);
2. release condensation-anonymized records at the chosen k;
3. red-team the release with a record-linkage attack.
"""

from repro.core.condensation import create_condensed_groups
from repro.core.condenser import ClasswiseCondenser
from repro.datasets import load_pima
from repro.evaluation import format_table
from repro.neighbors import KNeighborsClassifier
from repro.preprocessing import StandardScaler, train_test_split
from repro.privacy import linkage_attack, privacy_report


def main():
    dataset = load_pima()
    train_x, test_x, train_y, test_y = train_test_split(
        dataset.data, dataset.target, test_size=0.25,
        stratify=dataset.target, random_state=11,
    )
    scaler = StandardScaler().fit(train_x)
    train_x = scaler.transform(train_x)
    test_x = scaler.transform(test_x)

    # --- 1. Sweep k: privacy vs utility. ------------------------------
    rows = []
    for k in (5, 10, 20, 35, 50):
        anonymized, labels = ClasswiseCondenser(
            k, random_state=11
        ).fit_generate(train_x, train_y)
        knn = KNeighborsClassifier(n_neighbors=1).fit(anonymized, labels)
        accuracy = knn.score(test_x, test_y)
        model = create_condensed_groups(train_x, k, random_state=11)
        attack = linkage_attack(train_x, model, random_state=11)
        rows.append([
            k,
            f"{accuracy:.4f}",
            f"{attack.expected_record_disclosure:.4f}",
            f"{1.0 / k:.4f}",
        ])
    baseline = KNeighborsClassifier(n_neighbors=1).fit(
        train_x, train_y
    ).score(test_x, test_y)
    print(format_table(
        ["k", "researcher accuracy", "re-id disclosure", "1/k bound"],
        rows,
        title=(
            "privacy-utility sweep "
            f"(original-data baseline accuracy {baseline:.4f})"
        ),
    ))

    # --- 2. Release at the chosen level. ------------------------------
    chosen_k = 20
    condenser = ClasswiseCondenser(chosen_k, random_state=11)
    release_x, release_y = condenser.fit_generate(train_x, train_y)
    print(f"\nreleasing {release_x.shape[0]} anonymized records "
          f"at k={chosen_k}")

    # --- 3. Researchers run their own models on the release. ----------
    print("\ndownstream researcher models (trained on the release):")
    for n_neighbors in (1, 7, 15):
        model = KNeighborsClassifier(n_neighbors=n_neighbors)
        model.fit(release_x, release_y)
        print(f"  {n_neighbors}-NN accuracy on held-out patients: "
              f"{model.score(test_x, test_y):.4f}")

    # --- 4. Red-team the release. --------------------------------------
    model = create_condensed_groups(train_x, chosen_k, random_state=11)
    report = privacy_report(model)
    attack = linkage_attack(train_x, model, random_state=11)
    print(f"\nred-team: group linkage {attack.group_linkage_rate:.2%}, "
          f"record disclosure {attack.expected_record_disclosure:.4f} "
          f"(bound 1/k = {1.0 / chosen_k:.4f}, "
          f"blind guessing {attack.baseline_disclosure:.5f})")
    print(f"achieved indistinguishability level: {report.achieved_k}")


if __name__ == "__main__":
    main()
