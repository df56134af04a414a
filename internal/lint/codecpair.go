package lint

import (
	"go/ast"
	"go/constant"
	"go/token"
	"go/types"
	"sort"
	"strings"
)

// CodecPair enforces encode/decode symmetry on the wire codecs
// (internal/cluster/protocol.go, internal/membership): every encoder
// has a decoder and vice versa, the two sides read and write the same
// multiset of field widths, straight-line pairs keep their field order
// aligned, and fixed-offset decoders only touch bytes a length guard
// has proven present — the back-compat discipline that let the stats
// record grow 40 → 48 → 72 → 80 bytes without breaking old peers.
var CodecPair = &Analyzer{
	Name: "codecpair",
	Doc:  "checks encode/decode pairs for existence, field-width symmetry, order, and length guards",
	Run:  runCodecPair,
}

// codecFunc is one recognized codec function: its role (encode or
// decode), the entity name shared by both sides ("ReadRequest" for
// encodeReadRequest/decodeReadRequest), and its declaration.
type codecFunc struct {
	role   string // "encode" or "decode"
	entity string
	decl   *ast.FuncDecl
}

// codecRole splits a function name into codec role and entity name.
// Encoders are named encodeX or appendX (AppendX when exported);
// decoders decodeX (DecodeX). A bare "encode"/"decode" (checkpoint's
// whole-snapshot codec) pairs under the empty entity. Everything else
// is not a codec.
func codecRole(name string) (role, entity string, ok bool) {
	for _, p := range []struct{ prefix, role string }{
		{"encode", "encode"}, {"append", "encode"}, {"Append", "encode"},
		{"decode", "decode"}, {"Decode", "decode"},
	} {
		if rest, found := strings.CutPrefix(name, p.prefix); found && (rest == "" || ast.IsExported(rest)) {
			return p.role, rest, true
		}
	}
	return "", "", false
}

// looksLikeCodec filters codec-named functions down to ones with a
// byte-slice in their signature, so an incidental "decorate" or
// "appendServer" helper without wire format involvement is ignored.
func looksLikeCodec(pass *Pass, fd *ast.FuncDecl) bool {
	hasByteSlice := func(tuple *types.Tuple) bool {
		for i := 0; i < tuple.Len(); i++ {
			if s, ok := tuple.At(i).Type().(*types.Slice); ok {
				if b, ok := s.Elem().(*types.Basic); ok && b.Kind() == types.Byte {
					return true
				}
			}
		}
		return false
	}
	fn, _ := pass.TypesInfo.Defs[fd.Name].(*types.Func)
	if fn == nil {
		return false
	}
	sig := fn.Type().(*types.Signature)
	return hasByteSlice(sig.Params()) || hasByteSlice(sig.Results())
}

func runCodecPair(pass *Pass) error {
	codecs := map[string][]codecFunc{} // entity → funcs (both roles)
	bodies := map[string]*ast.FuncDecl{}
	for _, f := range pass.Files {
		for _, decl := range f.Decls {
			fd, ok := decl.(*ast.FuncDecl)
			if !ok || fd.Body == nil || fd.Recv != nil {
				continue
			}
			bodies[fd.Name.Name] = fd
			role, entity, isCodec := codecRole(fd.Name.Name)
			if !isCodec || !looksLikeCodec(pass, fd) {
				continue
			}
			codecs[entity] = append(codecs[entity], codecFunc{role: role, entity: entity, decl: fd})
		}
	}
	entities := make([]string, 0, len(codecs))
	for e := range codecs {
		entities = append(entities, e)
	}
	sort.Strings(entities)
	for _, entity := range entities {
		funcs := codecs[entity]
		var enc, dec *ast.FuncDecl
		for _, cf := range funcs {
			switch cf.role {
			case "encode":
				enc = cf.decl
			case "decode":
				dec = cf.decl
			}
		}
		switch {
		case enc == nil:
			pass.Reportf(dec.Pos(), "decoder %s has no matching encoder (encode%s or append%s) in this package",
				dec.Name.Name, entity, entity)
			continue
		case dec == nil:
			pass.Reportf(enc.Pos(), "encoder %s has no matching decoder (decode%s) in this package",
				enc.Name.Name, entity)
			continue
		}
		encToks := codecTokens(pass, enc, bodies, true)
		decToks := codecTokens(pass, dec, bodies, true)
		if !sameMultiset(encToks, decToks) {
			pass.Reportf(dec.Pos(), "codec pair %s/%s is asymmetric: encoder writes %s, decoder reads %s",
				enc.Name.Name, dec.Name.Name, tokenSummary(encToks), tokenSummary(decToks))
			continue
		}
		if straightLine(enc.Body) && straightLine(dec.Body) && !sameSequence(encToks, decToks) {
			pass.Reportf(dec.Pos(), "codec pair %s/%s reads fields in a different order than they are written: encoder %s, decoder %s",
				enc.Name.Name, dec.Name.Name, tokenSummary(encToks), tokenSummary(decToks))
		}
	}
	checkLengthGuards(pass)
	return nil
}

// codecTokens extracts a function body's wire-format fingerprint: one
// token per fixed-width binary read/write (W16/W32/W64) and one
// CALL(Entity) token per invocation of a sub-codec of this module. Same-package non-codec
// helpers (a readCount, a putHeader) are inlined one level so a
// refactor that extracts a helper does not break the fingerprint.
func codecTokens(pass *Pass, fd *ast.FuncDecl, bodies map[string]*ast.FuncDecl, inline bool) []string {
	var toks []string
	ast.Inspect(fd.Body, func(n ast.Node) bool {
		call, ok := n.(*ast.CallExpr)
		if !ok {
			return true
		}
		if sel, ok := ast.Unparen(call.Fun).(*ast.SelectorExpr); ok {
			fn, _ := pass.TypesInfo.Uses[sel.Sel].(*types.Func)
			if fn != nil && fn.Pkg() != nil && fn.Pkg().Path() == "encoding/binary" {
				switch fn.Name() {
				case "AppendUint16", "PutUint16", "Uint16":
					toks = append(toks, "W16")
				case "AppendUint32", "PutUint32", "Uint32":
					toks = append(toks, "W32")
				case "AppendUint64", "PutUint64", "Uint64":
					toks = append(toks, "W64")
				}
				return true
			}
		}
		callee := calleeFunc(pass, call)
		if callee == nil {
			return true
		}
		if _, entity, isCodec := codecRole(callee.Name()); isCodec && entity != "" && sameModule(callee.Pkg(), pass.Pkg) {
			toks = append(toks, "CALL("+entity+")")
			return false // the sub-codec's own tokens belong to its pair
		}
		if inline && callee.Pkg() == pass.Pkg {
			if body, ok := bodies[callee.Name()]; ok {
				toks = append(toks, codecTokens(pass, body, bodies, false)...)
			}
		}
		return true
	})
	return toks
}

// sameModule reports whether package a belongs to the module of package
// b, judged by the first element of their import paths ("dynasore" for
// dynasore/internal/cluster). Only such callees can be sub-codecs: a
// standard-library strconv.AppendUint or base64 AppendEncode is a
// codec's building block, not a wire entity with a pair of its own.
func sameModule(a, b *types.Package) bool {
	if a == nil || b == nil {
		return false
	}
	ra, _, _ := strings.Cut(a.Path(), "/")
	rb, _, _ := strings.Cut(b.Path(), "/")
	return ra == rb
}

// sameMultiset reports whether two token slices contain the same tokens
// with the same multiplicities, order aside.
func sameMultiset(a, b []string) bool {
	if len(a) != len(b) {
		return false
	}
	counts := map[string]int{}
	for _, t := range a {
		counts[t]++
	}
	for _, t := range b {
		counts[t]--
		if counts[t] < 0 {
			return false
		}
	}
	return true
}

// sameSequence reports whether two token slices are identical in order.
func sameSequence(a, b []string) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// tokenSummary renders a token multiset compactly for diagnostics,
// e.g. "[W16 W32 W32]".
func tokenSummary(toks []string) string {
	if len(toks) == 0 {
		return "[no fixed-width fields]"
	}
	return "[" + strings.Join(toks, " ") + "]"
}

// straightLine reports whether a body has no branching — the order
// check only applies when both sides are simple field-by-field codecs.
func straightLine(body *ast.BlockStmt) bool {
	simple := true
	ast.Inspect(body, func(n ast.Node) bool {
		switch n.(type) {
		case *ast.IfStmt, *ast.ForStmt, *ast.RangeStmt, *ast.SwitchStmt, *ast.TypeSwitchStmt, *ast.SelectStmt, *ast.FuncLit:
			simple = false
			return false
		}
		return true
	})
	return simple
}

// checkLengthGuards verifies that decoders using constant offsets into
// their input slice only read bytes a dominating length check has
// proven present — the invariant that keeps a grown wire record
// decodable by peers still running the shorter format. Only functions
// where the input slice is never reassigned are checked; cursor-style
// decoders (b = b[4:]) are out of this check's scope.
func checkLengthGuards(pass *Pass) {
	for _, f := range pass.Files {
		for _, decl := range f.Decls {
			fd, ok := decl.(*ast.FuncDecl)
			if !ok || fd.Body == nil {
				continue
			}
			if role, _, isCodec := codecRole(fd.Name.Name); !isCodec || role != "decode" {
				continue
			}
			param := soleByteSliceParam(pass, fd)
			if param == nil || reassigned(pass, fd.Body, param) {
				continue
			}
			checkGuardedReads(pass, fd.Body.List, param, 0)
		}
	}
}

// soleByteSliceParam returns the object of fd's single []byte
// parameter, or nil if it has none or several.
func soleByteSliceParam(pass *Pass, fd *ast.FuncDecl) types.Object {
	var found types.Object
	for _, field := range fd.Type.Params.List {
		for _, name := range field.Names {
			obj := pass.TypesInfo.Defs[name]
			if obj == nil {
				continue
			}
			if s, ok := obj.Type().(*types.Slice); ok {
				if b, ok := s.Elem().(*types.Basic); ok && b.Kind() == types.Byte {
					if found != nil {
						return nil
					}
					found = obj
				}
			}
		}
	}
	return found
}

// reassigned reports whether obj is ever assigned within body.
func reassigned(pass *Pass, body *ast.BlockStmt, obj types.Object) bool {
	found := false
	ast.Inspect(body, func(n ast.Node) bool {
		as, ok := n.(*ast.AssignStmt)
		if !ok {
			return true
		}
		for _, lhs := range as.Lhs {
			if id, ok := lhs.(*ast.Ident); ok && pass.TypesInfo.Uses[id] == obj {
				found = true
			}
		}
		return true
	})
	return found
}

// checkGuardedReads scans a decoder body linearly, tracking the proven
// minimum length of the input slice. `if len(b) < N { return }` raises
// the floor to N for the rest of the block; `if len(b) >= M { … }`
// raises it to M inside the branch. Constant-offset reads past the
// floor are reported.
func checkGuardedReads(pass *Pass, stmts []ast.Stmt, param types.Object, floor int64) {
	for _, stmt := range stmts {
		switch s := stmt.(type) {
		case *ast.IfStmt:
			if n, ok := guardFloor(pass, s.Cond, param); ok && terminates(s.Body) {
				// Guard clause `if … || len(b) < n { return }`: every
				// `||` path being false on fall-through proves ≥ n bytes,
				// wherever the length test sits in the chain.
				checkGuardedReads(pass, s.Body.List, param, floor)
				floor = maxI64(floor, n)
				continue
			}
			if m, ok := branchFloor(pass, s.Cond, param); ok {
				// `if len(b) >= m && … { … }`: inside the branch every
				// `&&` path held, so ≥ m bytes are present there.
				checkGuardedReads(pass, s.Body.List, param, maxI64(floor, m))
				if s.Else != nil {
					checkGuardedReads(pass, []ast.Stmt{s.Else}, param, floor)
				}
				continue
			}
			checkGuardedReads(pass, s.Body.List, param, floor)
			if s.Else != nil {
				checkGuardedReads(pass, []ast.Stmt{s.Else}, param, floor)
			}
		case *ast.BlockStmt:
			checkGuardedReads(pass, s.List, param, floor)
		case *ast.ForStmt, *ast.RangeStmt, *ast.SwitchStmt, *ast.TypeSwitchStmt, *ast.SelectStmt:
			// Loops and switches over the input need flow analysis
			// beyond this check; leave them to the multiset check.
		default:
			reportUnguardedReads(pass, stmt, param, floor)
		}
	}
}

// guardFloor extracts the length bound a terminating guard clause
// proves for the fall-through path. In an `||` chain, fall-through
// means every disjunct was false, so any `len(param) < n` (or != n)
// disjunct proves len ≥ n regardless of its position.
func guardFloor(pass *Pass, cond ast.Expr, param types.Object) (int64, bool) {
	if bin, ok := ast.Unparen(cond).(*ast.BinaryExpr); ok && bin.Op == token.LOR {
		a, aok := guardFloor(pass, bin.X, param)
		b, bok := guardFloor(pass, bin.Y, param)
		if aok || bok {
			return maxI64(a, b), true
		}
		return 0, false
	}
	op, n, ok := lenComparison(pass, cond, param)
	if ok && (op == token.LSS || op == token.NEQ) {
		return n, true
	}
	return 0, false
}

// branchFloor extracts the length bound proven inside a branch body.
// In an `&&` chain, entering the branch means every conjunct was true,
// so any `len(param) >= m` (or > m-1, or == m) conjunct proves len ≥ m.
func branchFloor(pass *Pass, cond ast.Expr, param types.Object) (int64, bool) {
	if bin, ok := ast.Unparen(cond).(*ast.BinaryExpr); ok && bin.Op == token.LAND {
		a, aok := branchFloor(pass, bin.X, param)
		b, bok := branchFloor(pass, bin.Y, param)
		if aok || bok {
			return maxI64(a, b), true
		}
		return 0, false
	}
	op, n, ok := lenComparison(pass, cond, param)
	if !ok {
		return 0, false
	}
	switch op {
	case token.GEQ, token.EQL:
		return n, true
	case token.GTR:
		return n + 1, true
	}
	return 0, false
}

// lenComparison matches conditions of the form len(param) OP constant
// and returns the operator and bound.
func lenComparison(pass *Pass, cond ast.Expr, param types.Object) (token.Token, int64, bool) {
	bin, ok := ast.Unparen(cond).(*ast.BinaryExpr)
	if !ok {
		return 0, 0, false
	}
	call, ok := ast.Unparen(bin.X).(*ast.CallExpr)
	if !ok || len(call.Args) != 1 {
		return 0, 0, false
	}
	if id, ok := ast.Unparen(call.Fun).(*ast.Ident); !ok || id.Name != "len" {
		return 0, 0, false
	}
	if id, ok := ast.Unparen(call.Args[0]).(*ast.Ident); !ok || pass.TypesInfo.Uses[id] != param {
		return 0, 0, false
	}
	n, ok := constIntValue(pass, bin.Y)
	if !ok {
		return 0, 0, false
	}
	return bin.Op, n, true
}

// constIntValue evaluates e as a compile-time integer constant.
func constIntValue(pass *Pass, e ast.Expr) (int64, bool) {
	tv, ok := pass.TypesInfo.Types[e]
	if !ok || tv.Value == nil || tv.Value.Kind() != constant.Int {
		return 0, false
	}
	return constant.Int64Val(tv.Value)
}

// terminates reports whether a block always leaves the function
// (return or panic as its last statement).
func terminates(body *ast.BlockStmt) bool {
	if len(body.List) == 0 {
		return false
	}
	switch last := body.List[len(body.List)-1].(type) {
	case *ast.ReturnStmt:
		return true
	case *ast.ExprStmt:
		if call, ok := last.X.(*ast.CallExpr); ok {
			if id, ok := call.Fun.(*ast.Ident); ok && id.Name == "panic" {
				return true
			}
		}
	}
	return false
}

// reportUnguardedReads flags constant-offset reads of param beyond the
// proven length floor within one statement.
func reportUnguardedReads(pass *Pass, stmt ast.Stmt, param types.Object, floor int64) {
	ast.Inspect(stmt, func(n ast.Node) bool {
		var end int64
		var pos token.Pos
		switch e := n.(type) {
		case *ast.SliceExpr:
			if id, ok := ast.Unparen(e.X).(*ast.Ident); !ok || pass.TypesInfo.Uses[id] != param {
				return true
			}
			hi, ok := int64(0), false
			if e.High != nil {
				hi, ok = constIntValue(pass, e.High)
			}
			if !ok {
				return true
			}
			end, pos = hi, e.Pos()
		case *ast.IndexExpr:
			if id, ok := ast.Unparen(e.X).(*ast.Ident); !ok || pass.TypesInfo.Uses[id] != param {
				return true
			}
			idx, ok := constIntValue(pass, e.Index)
			if !ok {
				return true
			}
			end, pos = idx+1, e.Pos()
		default:
			return true
		}
		if end > floor {
			pass.Reportf(pos, "decoder reads %s[…%d] but only len ≥ %d is guaranteed by length guards — a short frame from an older peer panics here",
				param.Name(), end, floor)
		}
		return true
	})
}

// maxI64 returns the larger of two proven length floors.
func maxI64(a, b int64) int64 {
	if a > b {
		return a
	}
	return b
}
