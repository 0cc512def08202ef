"""Crafted assembly programs that several test modules share."""

#: Reads and stores back its own text, and takes a conditional branch
#: to the next instruction, whose redirect shows in timing only.
SELF_READING = """
main:   la $t0, main
        lw $t1, 4($t0)
        sw $t1, 4($t0)
        lb $t2, 8($t0)
        li $t3, 5
loop:   addi $t3, $t3, -1
        beq $zero, $zero, next
next:   bne $t3, $zero, loop
        lw $t4, 0($t0)
        mult $t4, $t3
        mflo $a0
        li $v0, 1
        syscall
        li $v0, 10
        syscall
"""

#: Swaps two words of a block it has yet to fetch, then runs it: the
#: swap keeps the block's behaviour and its XOR checksum, but not its
#: CRC-32, so a ``crc32`` monitor stops the pristine run and an ``xor``
#: one does not.
SWAPS_ITS_OWN_TEXT = """
main:   la $t0, first
        lw $t1, 0($t0)
        lw $t2, 4($t0)
        sw $t2, 0($t0)
        sw $t1, 4($t0)
        j first
first:  li $t5, 1
        li $t6, 2
        addu $a0, $t5, $t6
        li $v0, 1
        syscall
        li $v0, 10
        syscall
"""
