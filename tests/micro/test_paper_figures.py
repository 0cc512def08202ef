"""Experiment E5: execute the paper's literal microoperation figures.

Figure 1's fetch sequence, Figure 3(b)'s augmented IF stage, and Figure 4's
augmented ID stage are parsed from their paper-text form and executed
against real resources; the resulting monitor behaviour must equal the
behavioural CodeIntegrityChecker over the same instruction stream.
"""

from repro.cfg.hashgen import build_fht
from repro.cic.checker import CodeIntegrityChecker
from repro.cic.hashes import XorChecksum, block_hash
from repro.cic.iht import InternalHashTable
from repro.micro.parser import parse_microprogram
from repro.micro.program import MicroContext
from repro.micro.resources import (
    FunctionalUnit,
    HashTableResource,
    MemoryAccessUnit,
    Register,
    RegisterFileResource,
    ResourceSet,
)
from repro.osmodel.handler import OSExceptionHandler
from repro.osmodel.policies import get_policy
from repro.pipeline.memory import Memory

FIGURE_1 = """
current_pc = CPC.read();
instr = IMAU.read(current_pc);
null = IReg.write(instr);
null = CPC.inc();
"""

FIGURE_3B = """
current_pc = CPC.read();
instr = IMAU.read(current_pc);
null = IReg.write(instr);
null = CPC.inc();
start = STA.read();
null =[start==0]STA.write(current_pc);
ohashv = RHASH.read();
nhashv = HASHFU.ope(ohashv, instr);
null = RHASH.write(nhashv)
"""

FIGURE_4 = """
start = STA.read();
end = PPC.read();
hashv = RHASH.read();
<found,match> = IHTbb.lookup(<start,end,hashv>);
exception0 = [found==0] '1';
exception1 = [found==1 & match==0] '1';
null = STA.reset();
null = RHASH.reset();
target = GPR.read(rs);
null = CPC.write(target)
"""


def _datapath(words, iht):
    memory = Memory()
    for index, word in enumerate(words):
        memory.write_word(0x400000 + 4 * index, word)
    algorithm = XorChecksum()
    regs = [0] * 32
    regs[31] = 0x400100  # jr $ra target
    resources = ResourceSet(
        Register("CPC", reset_value=0x400000),
        Register("PPC"),
        Register("IReg"),
        Register("STA", reset_value=0),
        Register("RHASH", reset_value=algorithm.initial()),
        MemoryAccessUnit("IMAU", memory),
        FunctionalUnit("HASHFU", algorithm.update),
        HashTableResource("IHTbb", iht),
        RegisterFileResource("GPR", regs),
    )
    resources["CPC"].op_write(0x400000)
    return resources


class TestFigure1:
    def test_fetch_sequence(self):
        iht = InternalHashTable(2)
        resources = _datapath([0x11111111, 0x22222222], iht)
        program = parse_microprogram(FIGURE_1)
        program.execute(resources, MicroContext())
        assert resources["IReg"].op_read() == 0x11111111
        assert resources["CPC"].op_read() == 0x400004
        program.execute(resources, MicroContext())
        assert resources["IReg"].op_read() == 0x22222222


class TestFigure3b:
    def test_sta_latched_once_and_hash_accumulates(self):
        words = [0xAAAA0000, 0x0000BBBB, 0x12345678]
        iht = InternalHashTable(2)
        resources = _datapath(words, iht)
        program = parse_microprogram(FIGURE_3B)
        for _ in words:
            program.execute(resources, MicroContext())
        assert resources["STA"].op_read() == 0x400000  # latched at block start
        expected = block_hash(XorChecksum(), words)
        assert resources["RHASH"].op_read() == expected


class TestFigure4:
    def _run_block(self, words, iht, expected_hash):
        resources = _datapath(words, iht)
        if_program = parse_microprogram(FIGURE_3B)
        id_program = parse_microprogram(FIGURE_4)
        for _ in words:
            if_program.execute(resources, MicroContext())
        # The flow-control instruction (jr $ra) is now in ID: PPC holds its
        # address, the last word fetched.
        resources["PPC"].op_write(0x400000 + 4 * (len(words) - 1))
        context = MicroContext(fields={"rs": 31})
        id_program.execute(resources, context)
        return resources, context

    def test_hash_hit(self):
        words = [0x11111111, 0x03E0_0008]  # something + jr $ra
        iht = InternalHashTable(2)
        iht.insert(0x400000, 0x400004, block_hash(XorChecksum(), words))
        resources, context = self._run_block(words, iht, None)
        assert context.value("found") == 1
        assert context.value("match") == 1
        assert context.value("exception0") == 0
        assert context.value("exception1") == 0
        # Monitor reset and the jump executed:
        assert resources["STA"].op_read() == 0
        assert resources["RHASH"].op_read() == 0
        assert resources["CPC"].op_read() == 0x400100

    def test_hash_miss_raises_exception0(self):
        words = [0x11111111, 0x03E0_0008]
        iht = InternalHashTable(2)  # empty: tag absent
        _, context = self._run_block(words, iht, None)
        assert context.value("exception0") == 1
        assert context.value("exception1") == 0

    def test_hash_mismatch_raises_exception1(self):
        words = [0x11111111, 0x03E0_0008]
        iht = InternalHashTable(2)
        iht.insert(0x400000, 0x400004, 0xBAD)  # wrong expected hash
        _, context = self._run_block(words, iht, None)
        assert context.value("exception0") == 0
        assert context.value("exception1") == 1


class TestEquivalenceWithBehaviouralChecker:
    def test_figure_programs_match_fast_checker(self):
        """Drive both monitors with the same two-block stream."""
        from repro.asm.assembler import assemble

        program = assemble("""
        main:
            li $t0, 2
        loop:
            addi $t0, $t0, -1
            bgtz $t0, loop
            li $v0, 10
            syscall
        """)
        algorithm = XorChecksum()
        fht = build_fht(program, algorithm)

        def make_fast():
            iht = InternalHashTable(4)
            handler = OSExceptionHandler(
                fht=fht, iht=iht, policy=get_policy("lru_half")
            )
            return CodeIntegrityChecker(iht, handler, algorithm)

        from repro.pipeline.funcsim import FuncSim, run_timed

        fast = make_fast()
        result = run_timed(FuncSim(program, monitor=fast))

        # Micro-level: replay the same fetch stream through Figure 3b/4.
        from repro.cic.micromonitor import MicroMonitor

        iht = InternalHashTable(4)
        handler = OSExceptionHandler(fht=fht, iht=iht, policy=get_policy("lru_half"))
        micro = MicroMonitor(iht, handler, XorChecksum())
        result_micro = run_timed(FuncSim(program, monitor=micro))

        assert result.monitor_stats.lookups == result_micro.monitor_stats.lookups
        assert result.monitor_stats.misses == result_micro.monitor_stats.misses
        assert result.monitor_stats.hits == result_micro.monitor_stats.hits
        assert result.cycles == result_micro.cycles
