// Fixture: rng-determinism violation — entropy-seeded generator.

pub fn sample() -> f64 {
    let mut rng = rand::thread_rng();
    rng.gen()
}

pub fn os_seed() -> u64 {
    let mut seed = [0u8; 8];
    getrandom::fill(&mut seed);
    u64::from_le_bytes(seed)
}
