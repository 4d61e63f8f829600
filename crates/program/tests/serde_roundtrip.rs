//! JSON round-trips for the data-structure types (C-SERDE): downstream
//! users persist generated programs and replay them bit-for-bit.

use memmodel::OpType::{Ld, St};
use progmodel::{Instruction, Location, Program, ProgramGenerator};
use rand::rngs::SmallRng;
use rand::SeedableRng;

#[test]
fn program_round_trips_through_json() {
    let mut rng = SmallRng::seed_from_u64(3);
    let program = ProgramGenerator::new(24).generate(&mut rng);
    let json = serde_json::to_string(&program).expect("serializes");
    let back: Program = serde_json::from_str(&json).expect("deserializes");
    assert_eq!(program, back);
    assert_eq!(back.critical_store_index(), program.critical_store_index());
}

#[test]
fn fenced_program_round_trips() {
    let program = Program::from_filler_types(&[St, Ld])
        .unwrap()
        .with_acquire_before_critical();
    let json = serde_json::to_string(&program).unwrap();
    let back: Program = serde_json::from_str(&json).unwrap();
    assert_eq!(program, back);
    assert!(back[2].is_fence());
}

#[test]
fn instruction_and_location_wire_shape_is_stable() {
    let json = serde_json::to_string(&Instruction::critical_load()).unwrap();
    // The wire shape is part of the public contract; breaking it silently
    // would corrupt persisted corpora.
    assert!(json.contains("CriticalLoad"), "{json}");
    let loc_json = serde_json::to_string(&Location::filler(3)).unwrap();
    assert_eq!(loc_json, "4");
}

#[test]
fn memory_model_round_trips() {
    use memmodel::{MemoryModel, ReorderMatrix};
    for model in MemoryModel::NAMED {
        let json = serde_json::to_string(&model).unwrap();
        let back: MemoryModel = serde_json::from_str(&json).unwrap();
        assert_eq!(model, back);
    }
    let custom = MemoryModel::Custom(ReorderMatrix::new(true, false, true, false));
    let back: MemoryModel = serde_json::from_str(&serde_json::to_string(&custom).unwrap()).unwrap();
    assert_eq!(custom, back);
}

#[test]
fn corrupted_json_is_rejected() {
    // Type-level garbage.
    assert!(serde_json::from_str::<Program>("{\"instrs\": 3}").is_err());
    // Well-typed but invariant-violating: no critical pair.
    assert!(serde_json::from_str::<Program>("[]").is_err());
    // Reversed critical pair also fails validation on the way in.
    let st = serde_json::to_string(&Instruction::critical_store()).unwrap();
    let ld = serde_json::to_string(&Instruction::critical_load()).unwrap();
    let reversed = format!("[{st},{ld}]");
    assert!(serde_json::from_str::<Program>(&reversed).is_err());
}
