//! Mapper-level output digests: the FNV-1a-64 of
//! `CompiledProgram::to_bytes()` for a fixed corpus of graphs, resource
//! states and mapper settings.
//!
//! The pipeline golden digests (`tests/golden_digests.rs` at the
//! workspace root) cover only the paper's table configurations. These
//! pins cover the mapper directly: every resource-state kind (the
//! 6-ring's route capacity 2 included), boundary reservation and
//! dynamic refresh, on grids small enough that routing congests and
//! edges defer across layers. A performance change to the mapper must
//! leave every digest as it is; a deliberate output change re-baselines
//! them in the same commit.

use mbqc_compiler::{CompilerConfig, GridMapper, MapperWorkspace};
use mbqc_graph::{generate, Graph, NodeId};
use mbqc_hardware::ResourceStateKind;
use mbqc_util::Rng;

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
        ("gnm80", generate::erdos_renyi_gnm(80, 160, &mut rng), 8),
        ("gnm150", generate::erdos_renyi_gnm(150, 450, &mut rng), 12),
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

/// `graph/kind/setting digest` for every corpus entry, compiled through
/// one reused workspace (so workspace reuse is pinned as well).
fn corpus_digests() -> Vec<String> {
    let mut ws = MapperWorkspace::new();
    let mut out = Vec::new();
    for (gname, g, width) in graphs() {
        let order: Vec<NodeId> = g.nodes().collect();
        for (kname, kind) in KINDS {
            for (sname, cfg) in settings(width, kind) {
                let result = GridMapper::new(cfg).compile_with(&g, &order, &mut ws);
                let digest = match result {
                    Ok(c) => format!("{:016x}", fnv1a64(&c.to_bytes())),
                    Err(e) => format!("error: {e}"),
                };
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

#[test]
fn mapper_outputs_match_pinned_digests() {
    let got = corpus_digests();
    assert!(
        got == PINNED,
        "mapper output changed; got:\n{}",
        got.join("\n")
    );
}
