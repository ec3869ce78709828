//! Golden numbers of the Figure 3 ladder and of the conformance sweep,
//! which share one realization per level (`codesign_sim::ladder`). Any
//! change to a cycle count, an event count, a state digest or an
//! observable fails here with the index and the level that moved.

use codesign_conform::observables::check;
use codesign_conform::runner::run_system;
use codesign_conform::sweep::{splitmix64, sys_config};
use codesign_ir::workload::sysgen::random_system;
use codesign_sim::ladder::{run_level, AbstractionLevel, LadderConfig};

/// The ladder configs pinned: E3's four message sizes, the configs the
/// ladder tests use, and seeded draws in perfbench `cosim`'s ranges.
fn ladder_configs() -> Vec<LadderConfig> {
    let d = LadderConfig::default;
    let mut cfgs: Vec<LadderConfig> = [16u64, 64, 256, 1024]
        .into_iter()
        .map(|message_bytes| LadderConfig {
            message_bytes,
            ..d()
        })
        .collect();
    cfgs.extend([
        LadderConfig {
            drain_period: 2,
            ..d()
        },
        LadderConfig {
            iterations: 3,
            drain_period: 17,
            ..d()
        },
        LadderConfig {
            drain_period: 40,
            ..d()
        },
        LadderConfig {
            drain_period: 48,
            ..d()
        },
        LadderConfig {
            iterations: 4,
            ..d()
        },
        LadderConfig {
            iterations: 32,
            ..d()
        },
        LadderConfig {
            iterations: 5,
            message_bytes: 17,
            drain_period: 40,
            ..d()
        },
    ]);
    // perfbench `cosim` draws: 4 × [8, 24] bytes, [300, 600] compute,
    // [8, 24] words of capacity, [8, 16] cycles per drained word.
    let mut state = 7u64;
    let mut draw = |lo: u64, hi: u64| {
        state = splitmix64(state);
        lo + state % (hi - lo + 1)
    };
    for iterations in [8, 128, 128] {
        cfgs.push(LadderConfig {
            iterations,
            message_bytes: 4 * draw(8, 24),
            compute_cycles: draw(300, 600),
            fifo_capacity: draw(8, 24) as usize,
            drain_period: draw(8, 16),
        });
    }
    cfgs
}

/// `(simulated_cycles, kernel_events)` per level, pin to message, for
/// each of [`ladder_configs`].
const LADDER_GOLDEN: &[[(u64, u64); 4]] = &[
    [(8917, 7923), (8917, 5747), (8960, 32), (8112, 64)],
    [(11989, 16243), (11989, 7283), (11600, 32), (8448, 64)],
    [(24277, 47571), (24277, 13427), (22160, 32), (12852, 64)],
    [(73429, 180305), (73429, 38003), (64400, 32), (49908, 64)],
    [(11989, 16243), (11989, 7283), (11440, 32), (8288, 64)],
    [(2261, 3046), (2261, 1368), (2411, 6), (1820, 12)],
    [(12440, 16101), (12360, 7283), (12048, 32), (10756, 64)],
    [(12768, 16115), (12768, 7298), (12176, 32), (12804, 64)],
    [(3001, 4063), (3001, 1823), (3044, 8), (2256, 16)],
    [(23973, 32483), (23973, 14563), (23008, 64), (16704, 128)],
    [(2960, 2685), (2960, 1838), (3050, 10), (2725, 20)],
    [(3701, 4537), (3701, 2283), (3704, 16), (2896, 32)],
    [(81925, 102532), (81925, 50307), (79236, 256), (60164, 512)],
    [(82181, 87937), (82181, 51843), (80976, 256), (68048, 512)],
];

/// One line per sweep index: each level's cycles, kernel events, state
/// digest, per-channel bytes, IRQs, write order and messages.
const SYSTEM_GOLDEN: &[&str] = &[
    "pin 455 e728 ddc08c1dac41e5449 b[16, 16, 16] i0 o[0, 1, 2] m-; register 455 e266 ddc08c1dac41e5449 b[16, 16, 16] i0 o[0, 1, 2] m-; driver 463 e6 d- b[16, 16, 16] i- o- m-; message 304 e12 d- b[16, 16, 16] i- o- m3",
    "pin 1084 e1423 de6007997bff1dbb2 b[24, 32, 16] i1 o[0, 1, 2] m-; register 1084 e659 de6007997bff1dbb2 b[24, 32, 16] i1 o[0, 1, 2] m-; driver 1116 e13 d- b[24, 32, 16] i- o- m-; message 844 e24 d- b[24, 32, 16] i- o- m6",
    "pin 1978 e2421 d2542903fd2f4c04e b[40, 20, 40] i2 o[0, 1, 2] m-; register 1978 e1218 d2542903fd2f4c04e b[40, 20, 40] i2 o[0, 1, 2] m-; driver 2121 e32 d- b[40, 20, 40] i- o- m-; message 1712 e60 d- b[40, 20, 40] i- o- m15",
    "pin 281 e534 db57cd50a1d3333e8 b[12, 24] i0 o[0, 1] m-; register 281 e153 db57cd50a1d3333e8 b[12, 24] i0 o[0, 1] m-; driver 342 e12 d- b[12, 24] i- o- m-; message 203 e24 d- b[12, 24] i- o- m6",
    "pin 208 e338 dab8c56a8a88e0cf3 b[20] i2 o[0] m-; register 208 e108 dab8c56a8a88e0cf3 b[20] i2 o[0] m-; driver 238 e12 d- b[20] i- o- m-; message 121 e20 d- b[20] i- o- m5",
    "pin 427 e1003 d72b1f89782ed2b8c b[8, 8, 24, 32] i0 o[0, 1, 2, 3] m-; register 427 e223 d72b1f89782ed2b8c b[8, 8, 24, 32] i0 o[0, 1, 2, 3] m-; driver 499 e16 d- b[8, 8, 24, 32] i- o- m-; message 230 e32 d- b[8, 8, 24, 32] i- o- m8",
    "pin 586 e1206 dfba85065fdc437ad b[24, 48] i1 o[0, 1] m-; register 586 e317 dfba85065fdc437ad b[24, 48] i1 o[0, 1] m-; driver 714 e25 d- b[24, 48] i- o- m-; message 422 e48 d- b[24, 48] i- o- m12",
    "pin 556 e743 dd7fa629c154e9962 b[40] i4 o[0] m-; register 556 e320 dd7fa629c154e9962 b[40] i4 o[0] m-; driver 590 e14 d- b[40] i- o- m-; message 381 e20 d- b[40] i- o- m5",
    "pin 830 e924 db4591aa36a6ed36d b[48] i0 o[0] m-; register 830 e516 db4591aa36a6ed36d b[48] i0 o[0] m-; driver 832 e6 d- b[48] i- o- m-; message 673 e12 d- b[48] i- o- m3",
    "pin 720 e1626 df81b6188667eaca1 b[16, 24, 32, 48] i1 o[0, 1, 2, 3] m-; register 720 e381 df81b6188667eaca1 b[16, 24, 32, 48] i1 o[0, 1, 2, 3] m-; driver 746 e17 d- b[16, 24, 32, 48] i- o- m-; message 324 e32 d- b[16, 24, 32, 48] i- o- m8",
    "pin 584 e971 db96c061ae473623e b[24, 16, 24] i1 o[0, 1, 2] m-; register 584 e336 db96c061ae473623e b[24, 16, 24] i1 o[0, 1, 2] m-; driver 599 e7 d- b[24, 16, 24] i- o- m-; message 376 e12 d- b[24, 16, 24] i- o- m3",
    "pin 4862 e5614 d462218eaeb6e6b18 b[96, 48, 48, 48] i3 o[0, 1, 2, 3] m-; register 4862 e3029 d462218eaeb6e6b18 b[96, 48, 48, 48] i3 o[0, 1, 2, 3] m-; driver 5064 e51 d- b[96, 48, 48, 48] i- o- m-; message 4136 e96 d- b[96, 48, 48, 48] i- o- m24",
    "pin 1380 e1917 de7a246f175dc9a0b b[120] i2 o[0] m-; register 1380 e821 de7a246f175dc9a0b b[120] i2 o[0] m-; driver 1398 e14 d- b[120] i- o- m-; message 976 e24 d- b[120] i- o- m6",
    "pin 207 e246 d53f0606ee63d7e8c b[4] i4 o[0] m-; register 207 e118 d53f0606ee63d7e8c b[4] i4 o[0] m-; driver 206 e6 d- b[4] i- o- m-; message 125 e4 d- b[4] i- o- m1",
    "pin 2594 e3384 d90fdf3bd68deb88b b[72, 36, 12, 72] i0 o[0, 1, 2, 3] m-; register 2594 e1581 d90fdf3bd68deb88b b[72, 36, 12, 72] i0 o[0, 1, 2, 3] m-; driver 2649 e24 d- b[72, 36, 12, 72] i- o- m-; message 2013 e48 d- b[72, 36, 12, 72] i- o- m12",
    "pin 3149 e4636 d141b477cfa292042 b[128, 32, 128] i0 o[0, 1, 2] m-; register 3149 e1887 d141b477cfa292042 b[128, 32, 128] i0 o[0, 1, 2] m-; driver 3148 e24 d- b[128, 32, 128] i- o- m-; message 2224 e48 d- b[128, 32, 128] i- o- m12",
    "pin 32 e51 d7c071a052446f15f b[4] i0 o[0] m-; register 32 e17 d7c071a052446f15f b[4] i0 o[0] m-; driver 39 e2 d- b[4] i- o- m-; message 22 e3 d- b[4] i- o- m1",
    "pin 389 e822 dfc5d5760c7afc1ad b[16, 16, 16] i0 o[0, 1, 2] m-; register 389 e207 dfc5d5760c7afc1ad b[16, 16, 16] i0 o[0, 1, 2] m-; driver 517 e24 d- b[16, 16, 16] i- o- m-; message 313 e48 d- b[16, 16, 16] i- o- m12",
    "pin 592 e620 d985537e01b35d5b3 b[24] i1 o[0] m-; register 592 e368 d985537e01b35d5b3 b[24] i1 o[0] m-; driver 607 e7 d- b[24] i- o- m-; message 504 e12 d- b[24] i- o- m3",
    "pin 415 e650 dc3926ff7321ad365 b[48] i0 o[0] m-; register 415 e241 dc3926ff7321ad365 b[48] i0 o[0] m-; driver 408 e4 d- b[48] i- o- m-; message 254 e8 d- b[48] i- o- m2",
    "pin 3325 e6427 d71d4b2aee582ca5a b[120, 140, 120, 100] i0 o[0, 1, 2, 3] m-; register 3325 e1863 d71d4b2aee582ca5a b[120, 140, 120, 100] i0 o[0, 1, 2, 3] m-; driver 3279 e40 d- b[120, 140, 120, 100] i- o- m-; message 1720 e80 d- b[120, 140, 120, 100] i- o- m20",
    "pin 4569 e5731 db3825cb674422d80 b[80, 40, 100, 80] i1 o[0, 1, 2, 3] m-; register 4569 e2807 db3825cb674422d80 b[80, 40, 100, 80] i1 o[0, 1, 2, 3] m-; driver 4671 e41 d- b[80, 40, 100, 80] i- o- m-; message 3655 e80 d- b[80, 40, 100, 80] i- o- m20",
    "pin 1656 e3012 dfb0395079f3132fb b[32, 16, 112, 32] i6 o[0, 1, 2, 3] m-; register 1656 e927 dfb0395079f3132fb b[32, 16, 112, 32] i6 o[0, 1, 2, 3] m-; driver 1801 e38 d- b[32, 16, 112, 32] i- o- m-; message 1018 e64 d- b[32, 16, 112, 32] i- o- m16",
    "pin 1370 e2764 d94b8646a7804a651 b[48, 80, 80] i1 o[0, 1, 2] m-; register 1370 e749 d94b8646a7804a651 b[48, 80, 80] i1 o[0, 1, 2] m-; driver 1410 e25 d- b[48, 80, 80] i- o- m-; message 710 e48 d- b[48, 80, 80] i- o- m12",
    "pin 486 e1189 dba8e89f3fb61f051 b[8, 16, 56] i1 o[0, 1, 2] m-; register 486 e255 dba8e89f3fb61f051 b[8, 16, 56] i1 o[0, 1, 2] m-; driver 499 e13 d- b[8, 16, 56] i- o- m-; message 213 e24 d- b[8, 16, 56] i- o- m6",
    "pin 802 e1262 d3628ba24ea298d81 b[84] i4 o[0] m-; register 802 e458 d3628ba24ea298d81 b[84] i4 o[0] m-; driver 780 e10 d- b[84] i- o- m-; message 449 e12 d- b[84] i- o- m3",
    "pin 1548 e2468 d2c6dad5be0fdf452 b[24, 48, 24, 24] i5 o[0, 1, 2, 3] m-; register 1548 e893 d2c6dad5be0fdf452 b[24, 48, 24, 24] i5 o[0, 1, 2, 3] m-; driver 1832 e53 d- b[24, 48, 24, 24] i- o- m-; message 1257 e96 d- b[24, 48, 24, 24] i- o- m24",
    "pin 926 e1201 d8539f34bfa808f38 b[48, 16] i2 o[0, 1] m-; register 926 e559 d8539f34bfa808f38 b[48, 16] i2 o[0, 1] m-; driver 926 e10 d- b[48, 16] i- o- m-; message 678 e16 d- b[48, 16] i- o- m4",
    "pin 755 e1176 d63b2e87b098352c0 b[24, 24, 24] i0 o[0, 1, 2] m-; register 755 e445 d63b2e87b098352c0 b[24, 24, 24] i0 o[0, 1, 2] m-; driver 797 e12 d- b[24, 24, 24] i- o- m-; message 551 e24 d- b[24, 24, 24] i- o- m6",
    "pin 212 e435 dc11d2579c0d119de b[4, 16, 8] i1 o[0, 1, 2] m-; register 212 e112 dc11d2579c0d119de b[4, 16, 8] i1 o[0, 1, 2] m-; driver 226 e7 d- b[4, 16, 8] i- o- m-; message 111 e12 d- b[4, 16, 8] i- o- m3",
    "pin 5009 e8726 d1f5bc1ed6f92e5a7 b[144, 192, 96, 192] i0 o[0, 1, 2, 3] m-; register 5009 e2883 d1f5bc1ed6f92e5a7 b[144, 192, 96, 192] i0 o[0, 1, 2, 3] m-; driver 4910 e48 d- b[144, 192, 96, 192] i- o- m-; message 2918 e96 d- b[144, 192, 96, 192] i- o- m24",
    "pin 712 e840 df4fb18f55c9f8868 b[16, 16] i1 o[0, 1] m-; register 712 e441 df4fb18f55c9f8868 b[16, 16] i1 o[0, 1] m-; driver 736 e9 d- b[16, 16] i- o- m-; message 604 e16 d- b[16, 16] i- o- m4",
    "pin 1529 e3508 df64c5c1078de9b26 b[60, 20, 80, 100] i1 o[0, 1, 2, 3] m-; register 1529 e807 df64c5c1078de9b26 b[60, 20, 80, 100] i1 o[0, 1, 2, 3] m-; driver 1626 e41 d- b[60, 20, 80, 100] i- o- m-; message 730 e80 d- b[60, 20, 80, 100] i- o- m20",
    "pin 399 e906 d63ecbd1c7cfcb705 b[80] i0 o[0] m-; register 418 e208 d63ecbd1c7cfcb705 b[80] i0 o[0] m-; driver 420 e8 d- b[80] i- o- m-; message 265 e12 d- b[80] i- o- m4",
    "pin 3934 e5569 d4a85f31b4cf9ef75 b[96, 96, 96, 24] i1 o[0, 1, 2, 3] m-; register 3934 e2369 d4a85f31b4cf9ef75 b[96, 96, 96, 24] i1 o[0, 1, 2, 3] m-; driver 4074 e49 d- b[96, 96, 96, 24] i- o- m-; message 2973 e96 d- b[96, 96, 96, 24] i- o- m24",
    "pin 311 e632 d723c0cfca1a3a87c b[4, 12, 12, 8] i1 o[0, 1, 2, 3] m-; register 311 e171 d723c0cfca1a3a87c b[4, 12, 12, 8] i1 o[0, 1, 2, 3] m-; driver 341 e9 d- b[4, 12, 12, 8] i- o- m-; message 188 e16 d- b[4, 12, 12, 8] i- o- m4",
    "pin 3072 e4595 dd04d231ba70ee0fa b[120, 96, 72] i2 o[0, 1, 2] m-; register 3072 e1817 dd04d231ba70ee0fa b[120, 96, 72] i2 o[0, 1, 2] m-; driver 3125 e38 d- b[120, 96, 72] i- o- m-; message 2130 e72 d- b[120, 96, 72] i- o- m18",
    "pin 377 e732 df933f7c9c685cc46 b[4, 4, 24, 24] i0 o[0, 1, 2, 3] m-; register 377 e207 df933f7c9c685cc46 b[4, 4, 24, 24] i0 o[0, 1, 2, 3] m-; driver 410 e8 d- b[4, 4, 24, 24] i- o- m-; message 222 e16 d- b[4, 4, 24, 24] i- o- m4",
    "pin 590 e898 d34540791f4ea1c17 b[28, 28] i1 o[0, 1] m-; register 590 e347 d34540791f4ea1c17 b[28, 28] i1 o[0, 1] m-; driver 624 e5 d- b[28, 28] i- o- m-; message 430 e8 d- b[28, 28] i- o- m2",
    "pin 365 e781 d397be832b354d49d b[16, 16, 16] i0 o[0, 1, 2] m-; register 365 e191 d397be832b354d49d b[16, 16, 16] i0 o[0, 1, 2] m-; driver 505 e24 d- b[16, 16, 16] i- o- m-; message 301 e48 d- b[16, 16, 16] i- o- m12",
    "pin 2219 e2118 d687740e7f82e86b3 b[40, 20] i1 o[0, 1] m-; register 2219 e1417 d687740e7f82e86b3 b[40, 20] i1 o[0, 1] m-; driver 2309 e21 d- b[40, 20] i- o- m-; message 2057 e40 d- b[40, 20] i- o- m10",
    "pin 1816 e2012 d6c1627c1d921bf5b b[64, 16] i2 o[0, 1] m-; register 1816 e1135 d6c1627c1d921bf5b b[64, 16] i2 o[0, 1] m-; driver 1864 e18 d- b[64, 16] i- o- m-; message 1546 e32 d- b[64, 16] i- o- m8",
    "pin 295 e631 d2edddd400962aa2e b[8, 8, 32] i0 o[0, 1, 2] m-; register 295 e155 d2edddd400962aa2e b[8, 8, 32] i0 o[0, 1, 2] m-; driver 360 e12 d- b[8, 8, 32] i- o- m-; message 186 e22 d- b[8, 8, 32] i- o- m6",
    "pin 1284 e1578 d077eb62364e6f2be b[16, 16, 16, 16] i2 o[0, 1, 2, 3] m-; register 1284 e791 d077eb62364e6f2be b[16, 16, 16, 16] i2 o[0, 1, 2, 3] m-; driver 1356 e18 d- b[16, 16, 16, 16] i- o- m-; message 1088 e32 d- b[16, 16, 16, 16] i- o- m8",
    "pin 394 e725 db0e70c6de85c3f98 b[12, 8, 4, 20] i1 o[0, 1, 2, 3] m-; register 394 e221 db0e70c6de85c3f98 b[12, 8, 4, 20] i1 o[0, 1, 2, 3] m-; driver 428 e9 d- b[12, 8, 4, 20] i- o- m-; message 260 e16 d- b[12, 8, 4, 20] i- o- m4",
    "pin 4783 e6188 d17679a4631a9623c b[100, 20, 100, 100] i2 o[0, 1, 2, 3] m-; register 4783 e2933 d17679a4631a9623c b[100, 20, 100, 100] i2 o[0, 1, 2, 3] m-; driver 4847 e42 d- b[100, 20, 100, 100] i- o- m-; message 3740 e80 d- b[100, 20, 100, 100] i- o- m20",
    "pin 312 e590 db1042a86032643b9 b[16, 16] i4 o[0, 1] m-; register 312 e159 db1042a86032643b9 b[16, 16] i4 o[0, 1] m-; driver 395 e20 d- b[16, 16] i- o- m-; message 195 e28 d- b[16, 16] i- o- m8",
    "pin 1480 e2554 dd0932c065b43f6f8 b[84, 96] i1 o[0, 1] m-; register 1480 e851 dd0932c065b43f6f8 b[84, 96] i1 o[0, 1] m-; driver 1430 e13 d- b[84, 96] i- o- m-; message 844 e24 d- b[84, 96] i- o- m6",
    "pin 645 e1048 db82de6708ae397ee b[80] i0 o[0] m-; register 645 e368 db82de6708ae397ee b[80] i0 o[0] m-; driver 666 e10 d- b[80] i- o- m-; message 401 e20 d- b[80] i- o- m5",
    "pin 359 e521 d52b94cdb2f9e87f1 b[12, 12] i6 o[0, 1] m-; register 363 e197 d52b94cdb2f9e87f1 b[12, 12] i6 o[0, 1] m-; driver 389 e10 d- b[12, 12] i- o- m-; message 211 e8 d- b[12, 12] i- o- m2",
    "pin 200 e571 d29202a302f7976b5 b[4, 4, 4, 4, 4, 4, 4, 4] i0 o[0, 1, 2, 3, 4, 5, 6, 7] m-; register 200 e101 d29202a302f7976b5 b[4, 4, 4, 4, 4, 4, 4, 4] i0 o[0, 1, 2, 3, 4, 5, 6, 7] m-; driver 305 e16 d- b[4, 4, 4, 4, 4, 4, 4, 4] i- o- m-; message 169 e24 d- b[4, 4, 4, 4, 4, 4, 4, 4] i- o- m8",
    "pin 146 e199 d8f398e2172c17cce b[4] i5 o[0] m-; register 146 e74 d8f398e2172c17cce b[4] i5 o[0] m-; driver 148 e7 d- b[4] i- o- m-; message 51 e4 d- b[4] i- o- m1",
    "pin 178 e305 d1e0751cdb58baaae b[4, 4, 4, 4] i0 o[0, 1, 2, 3] m-; register 178 e101 d1e0751cdb58baaae b[4, 4, 4, 4] i0 o[0, 1, 2, 3] m-; driver 224 e8 d- b[4, 4, 4, 4] i- o- m-; message 156 e16 d- b[4, 4, 4, 4] i- o- m4",
    "pin 2824 e3029 d0961032b0066b8a1 b[36, 36, 12, 24] i4 o[0, 1, 2, 3] m-; register 2824 e1775 d0961032b0066b8a1 b[36, 36, 12, 24] i4 o[0, 1, 2, 3] m-; driver 2923 e28 d- b[36, 36, 12, 24] i- o- m-; message 2470 e48 d- b[36, 36, 12, 24] i- o- m12",
    "pin 2279 e3221 d2629579d46485464 b[72, 24, 48, 48] i0 o[0, 1, 2, 3] m-; register 2279 e1371 d2629579d46485464 b[72, 24, 48, 48] i0 o[0, 1, 2, 3] m-; driver 2347 e24 d- b[72, 24, 48, 48] i- o- m-; message 1711 e48 d- b[72, 24, 48, 48] i- o- m12",
    "pin 1864 e2621 d8f90bacbdfb63924 b[96, 48] i1 o[0, 1] m-; register 1864 e1121 d8f90bacbdfb63924 b[96, 48] i1 o[0, 1] m-; driver 1920 e25 d- b[96, 48] i- o- m-; message 1406 e48 d- b[96, 48] i- o- m12",
    "pin 841 e1451 d750bc5d9c83c77c7 b[48, 16, 16] i0 o[0, 1, 2] m-; register 841 e487 d750bc5d9c83c77c7 b[48, 16, 16] i0 o[0, 1, 2] m-; driver 961 e24 d- b[48, 16, 16] i- o- m-; message 656 e48 d- b[48, 16, 16] i- o- m12",
    "pin 740 e829 d657618c2cd098ae2 b[8, 4, 12, 4] i2 o[0, 1, 2, 3] m-; register 740 e459 d657618c2cd098ae2 b[8, 4, 12, 4] i2 o[0, 1, 2, 3] m-; driver 771 e10 d- b[8, 4, 12, 4] i- o- m-; message 631 e16 d- b[8, 4, 12, 4] i- o- m4",
    "pin 1788 e3052 def8808f9fd6ef992 b[72, 72, 24] i5 o[0, 1, 2] m-; register 1788 e1031 def8808f9fd6ef992 b[72, 72, 24] i5 o[0, 1, 2] m-; driver 1931 e41 d- b[72, 72, 24] i- o- m-; message 1255 e72 d- b[72, 72, 24] i- o- m18",
    "pin 3319 e3002 d14db827facea33a7 b[20, 20, 20] i1 o[0, 1, 2] m-; register 3319 e2142 d14db827facea33a7 b[20, 20, 20] i1 o[0, 1, 2] m-; driver 3483 e31 d- b[20, 20, 20] i- o- m-; message 3212 e60 d- b[20, 20, 20] i- o- m15",
    "pin 1003 e875 d5b7380d6d662baac b[20] i2 o[0] m-; register 1003 e638 d5b7380d6d662baac b[20] i2 o[0] m-; driver 1043 e12 d- b[20] i- o- m-; message 926 e20 d- b[20] i- o- m5",
    "pin 2974 e3619 d6d3f13377138a122 b[84, 84, 12] i4 o[0, 1, 2] m-; register 2974 e1832 d6d3f13377138a122 b[84, 84, 12] i4 o[0, 1, 2] m-; driver 3040 e22 d- b[84, 84, 12] i- o- m-; message 2317 e36 d- b[84, 84, 12] i- o- m9",
    "pin 152 e329 d69f606b3d02d2787 b[4, 16] i1 o[0, 1] m-; register 152 e79 d69f606b3d02d2787 b[4, 16] i1 o[0, 1] m-; driver 169 e5 d- b[4, 16] i- o- m-; message 83 e8 d- b[4, 16] i- o- m2",
    "pin 627 e1307 d1b4b15e80a520c0d b[12, 48, 24] i2 o[0, 1, 2] m-; register 627 e338 d1b4b15e80a520c0d b[12, 48, 24] i2 o[0, 1, 2] m-; driver 695 e20 d- b[12, 48, 24] i- o- m-; message 358 e36 d- b[12, 48, 24] i- o- m9",
    "pin 898 e1268 d54ff990af525280e b[80] i2 o[0] m-; register 898 e528 d54ff990af525280e b[80] i2 o[0] m-; driver 918 e12 d- b[80] i- o- m-; message 621 e20 d- b[80] i- o- m5",
    "pin 1487 e2463 d4f0b4055bd67164a b[48, 72, 48] i0 o[0, 1, 2] m-; register 1487 e864 d4f0b4055bd67164a b[48, 72, 48] i0 o[0, 1, 2] m-; driver 1526 e18 d- b[48, 72, 48] i- o- m-; message 977 e36 d- b[48, 72, 48] i- o- m9",
    "pin 1118 e2175 dc8f0db7cb698efa3 b[24, 84, 60] i0 o[0, 1, 2] m-; register 1118 e618 dc8f0db7cb698efa3 b[24, 84, 60] i0 o[0, 1, 2] m-; driver 1136 e18 d- b[24, 84, 60] i- o- m-; message 583 e36 d- b[24, 84, 60] i- o- m9",
    "pin 102 e173 d0ad805cac81ca32f b[8] i2 o[0] m-; register 102 e51 d0ad805cac81ca32f b[8] i2 o[0] m-; driver 109 e6 d- b[8] i- o- m-; message 43 e6 d- b[8] i- o- m2",
];

/// Sweep indices of campaign seed 42 pinned; 16, 33, 50 and 67 are the
/// four degenerate corner shapes.
const SYSTEMS: usize = 68;

fn opt<T: std::fmt::Debug>(v: &Option<T>) -> String {
    v.as_ref().map_or("-".to_string(), |v| format!("{v:?}"))
}

#[test]
fn ladder_levels_match_the_recorded_numbers() {
    let got: Vec<[(u64, u64); 4]> = ladder_configs()
        .iter()
        .map(|cfg| {
            AbstractionLevel::ALL.map(|level| {
                let r = run_level(level, cfg).unwrap();
                (r.simulated_cycles, r.kernel_events)
            })
        })
        .collect();
    assert_eq!(got.len(), LADDER_GOLDEN.len());
    for (i, (cfg, (got, want))) in ladder_configs()
        .iter()
        .zip(got.iter().zip(LADDER_GOLDEN))
        .enumerate()
    {
        assert_eq!(got, want, "ladder config {i}: {cfg:?}");
    }
}

#[test]
fn ladder_levels_are_the_conformance_realization_and_conform() {
    // The E3 ladder is its spec realized through the conformance
    // runner: every level agrees number for number, and the run passes
    // the same observable and cycle-bound checks as a generated system.
    for (i, cfg) in ladder_configs().iter().enumerate() {
        let spec = cfg.spec().unwrap();
        let run = run_system(&spec).unwrap();
        for (level, realized) in AbstractionLevel::ALL.into_iter().zip(run.levels()) {
            let r = run_level(level, cfg).unwrap();
            assert_eq!(realized.level, level);
            assert_eq!(
                (r.simulated_cycles, r.kernel_events),
                (realized.cycles, realized.kernel_events),
                "ladder config {i} {level}: {cfg:?}"
            );
        }
        let divergences = check(&spec, &run);
        assert!(
            divergences.is_empty(),
            "ladder config {i}: {cfg:?} diverges: {divergences:?}"
        );
    }
}

#[test]
fn conformance_runs_match_the_recorded_observables() {
    let got: Vec<String> = (0..SYSTEMS)
        .map(|index| {
            let spec = random_system(&sys_config(42, index)).unwrap();
            let run = run_system(&spec).unwrap();
            run.levels()
                .iter()
                .map(|l| {
                    format!(
                        "{} {} e{} d{} b{:?} i{} o{} m{}",
                        l.level,
                        l.cycles,
                        l.kernel_events,
                        l.digest.map_or("-".to_string(), |d| format!("{d:016x}")),
                        l.per_channel_bytes,
                        opt(&l.irqs),
                        opt(&l.write_order),
                        opt(&l.messages),
                    )
                })
                .collect::<Vec<_>>()
                .join("; ")
        })
        .collect();
    assert_eq!(got.len(), SYSTEM_GOLDEN.len());
    for (index, (got, want)) in got.iter().zip(SYSTEM_GOLDEN).enumerate() {
        assert_eq!(got, want, "sweep index {index} of seed 42");
    }
}
