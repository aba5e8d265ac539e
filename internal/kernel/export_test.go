package kernel

// DecodeCanonical exposes the canonical fast path of DecodeJSON to the
// external tests, which assert that EncodeJSON's output takes it.
var DecodeCanonical = decodeCanonical
