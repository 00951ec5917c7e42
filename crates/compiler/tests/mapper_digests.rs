//! Mapper-level output digests: the FNV-1a-64 of every field of a
//! `CompiledProgram` (`program_bytes`) for a fixed corpus of graphs,
//! resource states and mapper settings.
//!
//! The pipeline golden digests (`tests/golden_digests.rs` at the
//! workspace root) cover only the paper's table configurations. These
//! pins cover the mapper directly: every resource-state kind (the
//! 6-ring's route capacity 2 included), boundary reservation and
//! dynamic refresh, on grids small enough that routing congests and
//! edges defer across layers. A second set maps a few of the graphs onto
//! grids 63 to 130 sites wide, where the free-site row masks span more
//! than one 64-bit word. A performance change to the mapper must leave
//! every digest as it is; a deliberate output change re-baselines them
//! in the same commit.

mod common;

use common::{edge_from_index, erdos_renyi_gnm};
use mbqc_compiler::{CompiledProgram, CompilerConfig, GridMapper, MapperWorkspace};
use mbqc_graph::{generate, Graph, NodeId};
use mbqc_hardware::ResourceStateKind;
use mbqc_util::{Encoder, Rng};

/// FNV-1a, 64-bit.
fn fnv1a64(bytes: &[u8]) -> u64 {
    bytes.iter().fold(0xcbf2_9ce4_8422_2325, |h, &b| {
        (h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3)
    })
}

/// The corpus graphs with the usable grid width each is mapped onto.
fn graphs() -> Vec<(&'static str, Graph, usize)> {
    let mut rng = Rng::seed_from_u64(7);
    vec![
        ("grid8x8", generate::grid_graph(8, 8), 5),
        ("grid10x10", generate::grid_graph(10, 10), 7),
        ("path60", generate::path_graph(60), 4),
        ("star20", generate::star_graph(20), 5),
        ("complete10", generate::complete_graph(10), 5),
        ("complete14", generate::complete_graph(14), 7),
        ("gnm80", erdos_renyi_gnm(80, 160, &mut rng), 8),
        ("gnm150", erdos_renyi_gnm(150, 450, &mut rng), 12),
    ]
}

/// Mapper settings per corpus entry: plain, boundary reservation (the
/// usable grid shrinks by two) and refresh every three layers.
fn settings(width: usize, kind: ResourceStateKind) -> [(&'static str, CompilerConfig); 3] {
    [
        ("plain", CompilerConfig::new(width, kind)),
        (
            "reserved",
            CompilerConfig::new(width, kind).with_boundary_reservation(true),
        ),
        ("refresh3", CompilerConfig::new(width, kind).with_refresh(3)),
    ]
}

const KINDS: [(&str, ResourceStateKind); 3] = [
    ("four_ring", ResourceStateKind::FOUR_RING),
    ("five_star", ResourceStateKind::FIVE_STAR),
    ("six_ring", ResourceStateKind::SIX_RING),
];

/// Every field of a program as little-endian words, in declaration
/// order, with a length prefix before each per-node table and before
/// the fusee pairs (four words each); the scalar counters follow.
fn program_bytes(c: &CompiledProgram) -> Vec<u8> {
    let mut e = Encoder::new();
    e.usize(c.num_layers);
    e.usize_slice(&c.layer_of);
    e.usize_slice(&c.effective_layer);
    e.usize_slice(&c.site_of);
    e.usize(c.fusee_pairs.len());
    for p in &c.fusee_pairs {
        e.usize(p.a.index());
        e.usize(p.b.index());
        e.usize(p.time_a);
        e.usize(p.time_b);
    }
    e.usize(c.fusion_count);
    e.usize(c.routing_fusions);
    e.usize(c.wire_fusions);
    e.usize(c.refresh_events);
    e.into_bytes()
}

/// The digest of one compilation, or its error.
fn digest(cfg: CompilerConfig, g: &Graph, order: &[NodeId], ws: &mut MapperWorkspace) -> String {
    match GridMapper::new(cfg).compile_with(g, order, ws) {
        Ok(c) => format!("{:016x}", fnv1a64(&program_bytes(&c))),
        Err(e) => format!("error: {e}"),
    }
}

/// `graph/kind/setting digest` for every corpus entry, compiled through
/// one reused workspace (so workspace reuse is pinned as well).
fn corpus_digests() -> Vec<String> {
    let mut ws = MapperWorkspace::new();
    let mut out = Vec::new();
    for (gname, g, width) in graphs() {
        let order: Vec<NodeId> = g.nodes().collect();
        for (kname, kind) in KINDS {
            for (sname, cfg) in settings(width, kind) {
                let digest = digest(cfg, &g, &order, &mut ws);
                out.push(format!("{gname}/{kname}/{sname} {digest}"));
            }
        }
    }
    out
}

const PINNED: &[&str] = &[
    "grid8x8/four_ring/plain f8de628832545c85",
    "grid8x8/four_ring/reserved f9c8dff1cc8b9ed3",
    "grid8x8/four_ring/refresh3 6210a174d141412e",
    "grid8x8/five_star/plain 1e1f4f681f8b82c8",
    "grid8x8/five_star/reserved f9c8dff1cc8b9ed3",
    "grid8x8/five_star/refresh3 c685e1005e7efee3",
    "grid8x8/six_ring/plain 3e2c7912ade4254d",
    "grid8x8/six_ring/reserved d60e7c17684f64f5",
    "grid8x8/six_ring/refresh3 5d87453db785160c",
    "grid10x10/four_ring/plain 1fd8ba50edba4331",
    "grid10x10/four_ring/reserved f757700a03949407",
    "grid10x10/four_ring/refresh3 b554f172e6f7c01e",
    "grid10x10/five_star/plain e61a43e6733f9054",
    "grid10x10/five_star/reserved 50b470c61026bf05",
    "grid10x10/five_star/refresh3 555fa17f82f58726",
    "grid10x10/six_ring/plain efadca686423cc3d",
    "grid10x10/six_ring/reserved 154fa002aae66593",
    "grid10x10/six_ring/refresh3 70bd175f67633e79",
    "path60/four_ring/plain 9b485eda7f84198a",
    "path60/four_ring/reserved c361444f9fd0db43",
    "path60/four_ring/refresh3 9b485eda7f84198a",
    "path60/five_star/plain 9b485eda7f84198a",
    "path60/five_star/reserved c361444f9fd0db43",
    "path60/five_star/refresh3 9b485eda7f84198a",
    "path60/six_ring/plain 9b485eda7f84198a",
    "path60/six_ring/reserved c361444f9fd0db43",
    "path60/six_ring/refresh3 9b485eda7f84198a",
    "star20/four_ring/plain 21e081884cd2cc7d",
    "star20/four_ring/reserved d03e4bf01ff88c8c",
    "star20/four_ring/refresh3 5be33a291e0aef8f",
    "star20/five_star/plain 92a48d2eb9795637",
    "star20/five_star/reserved b2e6c258e9f72c3c",
    "star20/five_star/refresh3 e4b42a763283335e",
    "star20/six_ring/plain 1af52bbc8edc9425",
    "star20/six_ring/reserved c24b664150f6244e",
    "star20/six_ring/refresh3 e004be4bb32b9b6e",
    "complete10/four_ring/plain f033bd9ab12926a4",
    "complete10/four_ring/reserved error: node n9 could not be placed after 12 layers; grid too small for program frontier",
    "complete10/four_ring/refresh3 0c3f4bb48a0f7051",
    "complete10/five_star/plain 8f2c8bad4b2836d3",
    "complete10/five_star/reserved error: node n9 could not be placed after 12 layers; grid too small for program frontier",
    "complete10/five_star/refresh3 bc2fb849669fe1a7",
    "complete10/six_ring/plain 62b31db979491975",
    "complete10/six_ring/reserved error: node n9 could not be placed after 10 layers; grid too small for program frontier",
    "complete10/six_ring/refresh3 34400d82838d07f4",
    "complete14/four_ring/plain d416339f72344f51",
    "complete14/four_ring/reserved d04b949f373e148f",
    "complete14/four_ring/refresh3 2553c8fa11708228",
    "complete14/five_star/plain 12095b1b09a7dd66",
    "complete14/five_star/reserved b8d025e8eba4bded",
    "complete14/five_star/refresh3 2334cb705db697b6",
    "complete14/six_ring/plain 213a7bc167d5955a",
    "complete14/six_ring/reserved a86db1e1cd28b570",
    "complete14/six_ring/refresh3 76877b4ca8bc7622",
    "gnm80/four_ring/plain 4c5c2bd9b7fc8315",
    "gnm80/four_ring/reserved error: node n41 could not be placed after 9 layers; grid too small for program frontier",
    "gnm80/four_ring/refresh3 6ef45a71c14aa7a5",
    "gnm80/five_star/plain 7c6e921ea621cb39",
    "gnm80/five_star/reserved error: node n41 could not be placed after 9 layers; grid too small for program frontier",
    "gnm80/five_star/refresh3 2d738384f3d19bfe",
    "gnm80/six_ring/plain e14efe5d6555ec93",
    "gnm80/six_ring/reserved error: node n41 could not be placed after 7 layers; grid too small for program frontier",
    "gnm80/six_ring/refresh3 1d234de9fa9da653",
    "gnm150/four_ring/plain d2fb8e7c2058a9f6",
    "gnm150/four_ring/reserved d5a1e42dc0236de9",
    "gnm150/four_ring/refresh3 a222e8964fdbb7c8",
    "gnm150/five_star/plain cfca248eeb0ed6fa",
    "gnm150/five_star/reserved a2103acc2b2c7db0",
    "gnm150/five_star/refresh3 0dbfb1d1c652f45f",
    "gnm150/six_ring/plain 6d61ce11c9e0921f",
    "gnm150/six_ring/reserved d1bfc0349687fc93",
    "gnm150/six_ring/refresh3 5f898af4f7cfec0e",
];

/// Corpus graphs on grids wider than one 64-bit word of free-site
/// bits: widths 63, 64 and 65 straddle the word edge, 130 spans three
/// words per row. The corpus above never exceeds width 12.
fn wide_digests() -> Vec<String> {
    let mut ws = MapperWorkspace::new();
    let mut out = Vec::new();
    let wide: Vec<_> = graphs()
        .into_iter()
        .filter(|(name, ..)| ["grid10x10", "complete14", "gnm150"].contains(name))
        .collect();
    for (gname, g, _) in wide {
        let order: Vec<NodeId> = g.nodes().collect();
        for width in [63, 64, 65, 130] {
            for (kname, kind) in KINDS {
                let [plain, _, refresh3] = settings(width, kind);
                for (sname, cfg) in [plain, refresh3] {
                    let digest = digest(cfg, &g, &order, &mut ws);
                    out.push(format!("{gname}@{width}/{kname}/{sname} {digest}"));
                }
            }
        }
    }
    out
}

const PINNED_WIDE: &[&str] = &[
    "grid10x10@63/four_ring/plain 32eefc76bd57c16b",
    "grid10x10@63/four_ring/refresh3 b361755cb276dd27",
    "grid10x10@63/five_star/plain 1c4a7b6a278bc6a8",
    "grid10x10@63/five_star/refresh3 8dcc6105f4a78364",
    "grid10x10@63/six_ring/plain f967fdb381b80582",
    "grid10x10@63/six_ring/refresh3 f967fdb381b80582",
    "grid10x10@64/four_ring/plain b77b68eec9aa2d64",
    "grid10x10@64/four_ring/refresh3 fd016cafa6893ca8",
    "grid10x10@64/five_star/plain 01db2de7399170db",
    "grid10x10@64/five_star/refresh3 6595a184be52ac17",
    "grid10x10@64/six_ring/plain 59500145548e01ff",
    "grid10x10@64/six_ring/refresh3 59500145548e01ff",
    "grid10x10@65/four_ring/plain f8f1aa2b62f3b46b",
    "grid10x10@65/four_ring/refresh3 2e13fdf9082cd127",
    "grid10x10@65/five_star/plain e24d291ecd27b9a8",
    "grid10x10@65/five_star/refresh3 087ee9a24a5d7764",
    "grid10x10@65/six_ring/plain b4cd91a53bc11b7b",
    "grid10x10@65/six_ring/refresh3 b4cd91a53bc11b7b",
    "grid10x10@130/four_ring/plain 2888477136aee8b7",
    "grid10x10@130/four_ring/refresh3 7d7f82c9a7abd37b",
    "grid10x10@130/five_star/plain c3ee07bf9d9896fc",
    "grid10x10@130/five_star/refresh3 3f185f511860c2b0",
    "grid10x10@130/six_ring/plain f6e0f88476e876ee",
    "grid10x10@130/six_ring/refresh3 f6e0f88476e876ee",
    "complete14@63/four_ring/plain 018d9d7b4b9d6187",
    "complete14@63/four_ring/refresh3 6197b8b857711a88",
    "complete14@63/five_star/plain eded4efa7974d493",
    "complete14@63/five_star/refresh3 6f4344166ae910ed",
    "complete14@63/six_ring/plain 77587f0e50c69777",
    "complete14@63/six_ring/refresh3 76c731faad5130a7",
    "complete14@64/four_ring/plain 25662884451ca5e1",
    "complete14@64/four_ring/refresh3 9a187f92ba964c86",
    "complete14@64/five_star/plain b7480cc16cec7b45",
    "complete14@64/five_star/refresh3 e40c94f832ee2b03",
    "complete14@64/six_ring/plain b1e27e706b32bee3",
    "complete14@64/six_ring/refresh3 25d567c2fd246f8b",
    "complete14@65/four_ring/plain 3549470075be01ef",
    "complete14@65/four_ring/refresh3 7b8427afe2828970",
    "complete14@65/five_star/plain 9b4a5ca290d852bb",
    "complete14@65/five_star/refresh3 0e1264a7755ed4f5",
    "complete14@65/six_ring/plain 21e196cc042a730b",
    "complete14@65/six_ring/refresh3 095acc22a6f4f553",
    "complete14@130/four_ring/plain a0479092dc6e0d01",
    "complete14@130/four_ring/refresh3 7441dde9ecd479e6",
    "complete14@130/five_star/plain f0f8b5572e131705",
    "complete14@130/five_star/refresh3 922da064921244a3",
    "complete14@130/six_ring/plain cade6609f5e49ba5",
    "complete14@130/six_ring/refresh3 e53aa5428b9aa135",
    "gnm150@63/four_ring/plain fa25fdb5c4ef364a",
    "gnm150@63/four_ring/refresh3 0d9c6bdc8fcb356b",
    "gnm150@63/five_star/plain bf832a4e8093eb9f",
    "gnm150@63/five_star/refresh3 80e780efe3b42de5",
    "gnm150@63/six_ring/plain b4079909460eaad0",
    "gnm150@63/six_ring/refresh3 6106862286107084",
    "gnm150@64/four_ring/plain 6179a423b2bdc6d3",
    "gnm150@64/four_ring/refresh3 d595d11213a87641",
    "gnm150@64/five_star/plain 586d24c66b912ed5",
    "gnm150@64/five_star/refresh3 ec4dc7f5bd66f2bf",
    "gnm150@64/six_ring/plain 5f6865fed0253e23",
    "gnm150@64/six_ring/refresh3 cfce1b4a9c6728c7",
    "gnm150@65/four_ring/plain 2be23f6465777eda",
    "gnm150@65/four_ring/refresh3 afa44b9a155f8277",
    "gnm150@65/five_star/plain a49ad452575e3dc2",
    "gnm150@65/five_star/refresh3 645a4526c4e281fa",
    "gnm150@65/six_ring/plain b5c6ac1adb57006c",
    "gnm150@65/six_ring/refresh3 b9a7c00ca3502b6b",
    "gnm150@130/four_ring/plain bb1d4afe5068ec4b",
    "gnm150@130/four_ring/refresh3 67e2a7b5d13fb8b0",
    "gnm150@130/five_star/plain b8b0ef67c9da8fe3",
    "gnm150@130/five_star/refresh3 5ac631746b774eb1",
    "gnm150@130/six_ring/plain 0c7bb90379947a90",
    "gnm150@130/six_ring/refresh3 ef03cee94ac8a8cc",
];

#[test]
fn wide_grid_outputs_match_pinned_digests() {
    let got = wide_digests();
    assert!(
        got == PINNED_WIDE,
        "wide-grid mapper output changed; got:\n{}",
        got.join("\n")
    );
}

#[test]
fn mapper_outputs_match_pinned_digests() {
    let got = corpus_digests();
    assert!(
        got == PINNED,
        "mapper output changed; got:\n{}",
        got.join("\n")
    );
}

// The `G(n, m)` corpus generator: its output is part of the pins above.

#[test]
fn edge_from_index_covers_all_pairs() {
    let n = 7;
    let mut seen = std::collections::HashSet::new();
    for k in 0..(n * (n - 1) / 2) {
        let (i, j) = edge_from_index(n, k);
        assert!(i < j && j < n);
        assert!(seen.insert((i, j)));
    }
    assert_eq!(seen.len(), 21);
}

#[test]
fn gnm_has_exact_edges() {
    let mut rng = Rng::seed_from_u64(1);
    let g = erdos_renyi_gnm(16, 60, &mut rng);
    assert_eq!(g.node_count(), 16);
    assert_eq!(g.edge_count(), 60);
}

#[test]
fn gnm_deterministic_for_seed() {
    let a = erdos_renyi_gnm(10, 20, &mut Rng::seed_from_u64(5));
    let b = erdos_renyi_gnm(10, 20, &mut Rng::seed_from_u64(5));
    assert_eq!(a, b);
}

#[test]
fn gnm_full_is_complete() {
    let mut rng = Rng::seed_from_u64(2);
    let g = erdos_renyi_gnm(5, 10, &mut rng);
    assert_eq!(g.edge_count(), 10);
}

#[test]
#[should_panic(expected = "edges but only")]
fn gnm_too_many_edges_panics() {
    let _ = erdos_renyi_gnm(4, 7, &mut Rng::seed_from_u64(0));
}
