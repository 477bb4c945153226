"""Tests for named seeded RNG streams."""

from repro.ports.rng import RngStream


class TestRngStream:
    def test_same_seed_and_name_reproduce(self):
        a = RngStream(7, "x").rng.random(10)
        b = RngStream(7, "x").rng.random(10)
        assert (a == b).all()

    def test_different_names_decouple(self):
        a = RngStream(7, "x").rng.random(10)
        b = RngStream(7, "y").rng.random(10)
        assert not (a == b).all()

    def test_different_seeds_differ(self):
        a = RngStream(1, "x").rng.random(10)
        b = RngStream(2, "x").rng.random(10)
        assert not (a == b).all()

    def test_child_derivation(self):
        parent = RngStream(7, "traces")
        child = parent.child("host1")
        assert child.name == "traces/host1"
        assert child.root_seed == 7
        again = RngStream(7, "traces").child("host1")
        assert (child.rng.random(5) == again.rng.random(5)).all()

    def test_nested_children_stay_independent(self):
        """`a/b/c` must decouple from `a/b`, from `a/c`, and from a flat
        stream literally named `a/b/c` constructed a different way."""
        root = RngStream(7, "a")
        grandchild = root.child("b").child("c")
        assert grandchild.name == "a/b/c"
        draws = {
            "a": RngStream(7, "a").rng.random(8),
            "a/b": RngStream(7, "a").child("b").rng.random(8),
            "a/c": RngStream(7, "a").child("c").rng.random(8),
            "a/b/c": grandchild.rng.random(8),
        }
        names = sorted(draws)
        for i, first in enumerate(names):
            for second in names[i + 1:]:
                assert not (draws[first] == draws[second]).all(), (
                    f"{first} and {second} produced identical draws"
                )

    def test_nesting_path_equivalence(self):
        """Derivation depends only on the full path, not on how the path
        was built -- `child('b/c')` == `child('b').child('c')`."""
        via_one_hop = RngStream(7, "a").child("b/c").rng.random(8)
        via_two_hops = RngStream(7, "a").child("b").child("c").rng.random(8)
        flat = RngStream(7, "a/b/c").rng.random(8)
        assert (via_one_hop == via_two_hops).all()
        assert (via_one_hop == flat).all()

    def test_parent_draws_do_not_perturb_children(self):
        """The no-shared-generator-coupling property under nesting: a
        parent consuming entropy must not shift any child's stream."""
        parent = RngStream(7, "traces")
        before = parent.child("host1").child("disk0").rng.random(8)
        parent.rng.random(1000)  # burn parent entropy
        after = parent.child("host1").child("disk0").rng.random(8)
        assert (before == after).all()

    def test_sibling_children_decouple(self):
        parent = RngStream(7, "traces")
        a = parent.child("host1").rng.random(8)
        b = parent.child("host2").rng.random(8)
        assert not (a == b).all()

    def test_repr(self):
        assert "traces" in repr(RngStream(7, "traces"))
