int main() {
    int i0;
    float a0[20000000];
    float b0[20000000];
    float s0;
    int i1;
    float a1[2000000];
    float b1[2000000];
    float s1;
    int i2;
    float a2[20000000];
    float b2[20000000];
    float s2;
    int i3;
    float a3[2000000];
    float b3[2000000];
    float s3;
    int i4;
    float a4[20000000];
    float b4[20000000];
    float s4;
    int q0;
    float r0[10000];
    int i5;
    float a5[2000000];
    float b5[2000000];
    float s5;
    int i6;
    float a6[20000000];
    float b6[20000000];
    float s6;
    int i7;
    float a7[2000000];
    float b7[2000000];
    float s7;
    int i8;
    float a8[20000000];
    float b8[20000000];
    float s8;
    int i9;
    float a9[2000000];
    float b9[2000000];
    float s9;
    int q1;
    float r1[10000];
    int i10;
    float a10[20000000];
    float b10[20000000];
    float s10;
    int i11;
    float a11[2000000];
    float b11[2000000];
    float s11;
    int i12;
    float a12[20000000];
    float b12[20000000];
    float s12;
    int i13;
    float a13[2000000];
    float b13[2000000];
    float s13;
    int i14;
    float a14[20000000];
    float b14[20000000];
    float s14;
    int q2;
    float r2[10000];
    int i15;
    float a15[2000000];
    float b15[2000000];
    float s15;
    int i16;
    float a16[20000000];
    float b16[20000000];
    float s16;
    int i17;
    float a17[2000000];
    float b17[2000000];
    float s17;
    int i18;
    float a18[20000000];
    float b18[20000000];
    float s18;
    int i19;
    float a19[2000000];
    float b19[2000000];
    float s19;
    int q3;
    float r3[10000];
    int i20;
    float a20[20000000];
    float b20[20000000];
    float s20;
    int i21;
    float a21[2000000];
    float b21[2000000];
    float s21;
    int i22;
    float a22[20000000];
    float b22[20000000];
    float s22;
    int i23;
    float a23[2000000];
    float b23[2000000];
    float s23;
    int i24;
    float a24[20000000];
    float b24[20000000];
    float s24;
    int q4;
    float r4[10000];
    int i25;
    float a25[2000000];
    float b25[2000000];
    float s25;
    int i26;
    float a26[20000000];
    float b26[20000000];
    float s26;
    int i27;
    float a27[2000000];
    float b27[2000000];
    float s27;
    int i28;
    float a28[20000000];
    float b28[20000000];
    float s28;
    int i29;
    float a29[2000000];
    float b29[2000000];
    float s29;
    int q5;
    float r5[10000];
    int i30;
    float a30[20000000];
    float b30[20000000];
    float s30;
    int i31;
    float a31[2000000];
    float b31[2000000];
    float s31;
    int i32;
    float a32[20000000];
    float b32[20000000];
    float s32;
    int i33;
    float a33[2000000];
    float b33[2000000];
    float s33;
    int i34;
    float a34[20000000];
    float b34[20000000];
    float s34;
    int q6;
    float r6[10000];
    int i35;
    float a35[2000000];
    float b35[2000000];
    float s35;
    int i36;
    float a36[20000000];
    float b36[20000000];
    float s36;
    int i37;
    float a37[2000000];
    float b37[2000000];
    float s37;
    int i38;
    float a38[20000000];
    float b38[20000000];
    float s38;
    int i39;
    float a39[2000000];
    float b39[2000000];
    float s39;
    int q7;
    float r7[10000];
    int i40;
    float a40[20000000];
    float b40[20000000];
    float s40;
    int i41;
    float a41[2000000];
    float b41[2000000];
    float s41;
    int i42;
    float a42[20000000];
    float b42[20000000];
    float s42;
    int i43;
    float a43[2000000];
    float b43[2000000];
    float s43;
    int i44;
    float a44[20000000];
    float b44[20000000];
    float s44;
    int q8;
    float r8[10000];
    int i45;
    float a45[2000000];
    float b45[2000000];
    float s45;
    int i46;
    float a46[20000000];
    float b46[20000000];
    float s46;
    int i47;
    float a47[2000000];
    float b47[2000000];
    float s47;
    int i48;
    float a48[20000000];
    float b48[20000000];
    float s48;
    int i49;
    float a49[2000000];
    float b49[2000000];
    float s49;
    int q9;
    float r9[10000];
    int i50;
    float a50[20000000];
    float b50[20000000];
    float s50;
    int i51;
    float a51[2000000];
    float b51[2000000];
    float s51;
    int i52;
    float a52[20000000];
    float b52[20000000];
    float s52;
    int i53;
    float a53[2000000];
    float b53[2000000];
    float s53;
    int i54;
    float a54[20000000];
    float b54[20000000];
    float s54;
    int q10;
    float r10[10000];
    int i55;
    float a55[2000000];
    float b55[2000000];
    float s55;
    int i56;
    float a56[20000000];
    float b56[20000000];
    float s56;
    int i57;
    float a57[2000000];
    float b57[2000000];
    float s57;
    int i58;
    float a58[20000000];
    float b58[20000000];
    float s58;
    int i59;
    float a59[2000000];
    float b59[2000000];
    float s59;
    int q11;
    float r11[10000];
    int i60;
    float a60[20000000];
    float b60[20000000];
    float s60;
    int i61;
    float a61[2000000];
    float b61[2000000];
    float s61;
    int i62;
    float a62[20000000];
    float b62[20000000];
    float s62;
    int i63;
    float a63[2000000];
    float b63[2000000];
    float s63;
    int i64;
    float a64[20000000];
    float b64[20000000];
    float s64;
    int q12;
    float r12[10000];
    int i65;
    float a65[2000000];
    float b65[2000000];
    float s65;
    int i66;
    float a66[20000000];
    float b66[20000000];
    float s66;
    int i67;
    float a67[2000000];
    float b67[2000000];
    float s67;
    int i68;
    float a68[20000000];
    float b68[20000000];
    float s68;
    int i69;
    float a69[2000000];
    float b69[2000000];
    float s69;
    int q13;
    float r13[10000];
    int i70;
    float a70[20000000];
    float b70[20000000];
    float s70;
    int i71;
    float a71[2000000];
    float b71[2000000];
    float s71;
    int i72;
    float a72[20000000];
    float b72[20000000];
    float s72;
    int i73;
    float a73[2000000];
    float b73[2000000];
    float s73;
    int i74;
    float a74[20000000];
    float b74[20000000];
    float s74;
    int q14;
    float r14[10000];
    s0 = 1.0;
    b0[0] = 1.0;
    #pragma acc data copy(a0) copyin(b0,s0)
    #pragma acc kernels
    for (i0 = 0; i0 < 20000000; i0++) {
        a0[i0] = a0[i0] * s0 + b0[i0];
    }
    s1 = 1.1;
    b1[0] = 1.0;
    #pragma acc data copy(a1) copyin(b1,s1)
    #pragma acc kernels
    for (i1 = 0; i1 < 2000000; i1++) {
        a1[i1] = a1[i1] * s1 + b1[i1];
    }
    s2 = 1.2;
    b2[0] = 1.0;
    #pragma acc data copy(a2) copyin(b2,s2)
    #pragma acc kernels
    for (i2 = 0; i2 < 20000000; i2++) {
        a2[i2] = a2[i2] * s2 + b2[i2];
    }
    s3 = 1.3;
    b3[0] = 1.0;
    #pragma acc data copy(a3) copyin(b3,s3)
    #pragma acc kernels
    for (i3 = 0; i3 < 2000000; i3++) {
        a3[i3] = a3[i3] * s3 + b3[i3];
    }
    s4 = 1.4;
    b4[0] = 1.0;
    for (i4 = 0; i4 < 20000000; i4++) {
        a4[i4] = a4[i4] * s4 + b4[i4];
    }
    r0[0] = 0.0;
    for (q0 = 1; q0 < 10000; q0++) {
        r0[q0] = r0[q0 - 1] + 1.0;
    }
    s5 = 1.5;
    b5[0] = 1.0;
    for (i5 = 0; i5 < 2000000; i5++) {
        a5[i5] = a5[i5] * s5 + b5[i5];
    }
    s6 = 1.6;
    b6[0] = 1.0;
    #pragma acc data copy(a6) copyin(b6,s6)
    #pragma acc kernels
    for (i6 = 0; i6 < 20000000; i6++) {
        a6[i6] = a6[i6] * s6 + b6[i6];
    }
    s7 = 1.7;
    b7[0] = 1.0;
    for (i7 = 0; i7 < 2000000; i7++) {
        a7[i7] = a7[i7] * s7 + b7[i7];
    }
    s8 = 1.8;
    b8[0] = 1.0;
    #pragma acc data copy(a8) copyin(b8,s8)
    #pragma acc kernels
    for (i8 = 0; i8 < 20000000; i8++) {
        a8[i8] = a8[i8] * s8 + b8[i8];
    }
    s9 = 1.9;
    b9[0] = 1.0;
    #pragma acc data copy(a9) copyin(b9,s9)
    #pragma acc kernels
    for (i9 = 0; i9 < 2000000; i9++) {
        a9[i9] = a9[i9] * s9 + b9[i9];
    }
    r1[0] = 0.0;
    for (q1 = 1; q1 < 10000; q1++) {
        r1[q1] = r1[q1 - 1] + 1.0;
    }
    s10 = 1.0;
    b10[0] = 1.0;
    for (i10 = 0; i10 < 20000000; i10++) {
        a10[i10] = a10[i10] * s10 + b10[i10];
    }
    s11 = 1.1;
    b11[0] = 1.0;
    #pragma acc data copy(a11) copyin(b11,s11)
    #pragma acc kernels
    for (i11 = 0; i11 < 2000000; i11++) {
        a11[i11] = a11[i11] * s11 + b11[i11];
    }
    s12 = 1.2;
    b12[0] = 1.0;
    #pragma acc data copy(a12) copyin(b12,s12)
    #pragma acc kernels
    for (i12 = 0; i12 < 20000000; i12++) {
        a12[i12] = a12[i12] * s12 + b12[i12];
    }
    s13 = 1.3;
    b13[0] = 1.0;
    #pragma acc data copy(a13) copyin(b13,s13)
    #pragma acc kernels
    for (i13 = 0; i13 < 2000000; i13++) {
        a13[i13] = a13[i13] * s13 + b13[i13];
    }
    s14 = 1.4;
    b14[0] = 1.0;
    #pragma acc data copy(a14) copyin(b14,s14)
    #pragma acc kernels
    for (i14 = 0; i14 < 20000000; i14++) {
        a14[i14] = a14[i14] * s14 + b14[i14];
    }
    r2[0] = 0.0;
    for (q2 = 1; q2 < 10000; q2++) {
        r2[q2] = r2[q2 - 1] + 1.0;
    }
    s15 = 1.5;
    b15[0] = 1.0;
    #pragma acc data copy(a15) copyin(b15,s15)
    #pragma acc kernels
    for (i15 = 0; i15 < 2000000; i15++) {
        a15[i15] = a15[i15] * s15 + b15[i15];
    }
    s16 = 1.6;
    b16[0] = 1.0;
    #pragma acc data copy(a16) copyin(b16,s16)
    #pragma acc kernels
    for (i16 = 0; i16 < 20000000; i16++) {
        a16[i16] = a16[i16] * s16 + b16[i16];
    }
    s17 = 1.7;
    b17[0] = 1.0;
    #pragma acc data copy(a17) copyin(b17,s17)
    #pragma acc kernels
    for (i17 = 0; i17 < 2000000; i17++) {
        a17[i17] = a17[i17] * s17 + b17[i17];
    }
    s18 = 1.8;
    b18[0] = 1.0;
    #pragma acc data copy(a18) copyin(b18,s18)
    #pragma acc kernels
    for (i18 = 0; i18 < 20000000; i18++) {
        a18[i18] = a18[i18] * s18 + b18[i18];
    }
    s19 = 1.9;
    b19[0] = 1.0;
    #pragma acc data copy(a19) copyin(b19,s19)
    #pragma acc kernels
    for (i19 = 0; i19 < 2000000; i19++) {
        a19[i19] = a19[i19] * s19 + b19[i19];
    }
    r3[0] = 0.0;
    for (q3 = 1; q3 < 10000; q3++) {
        r3[q3] = r3[q3 - 1] + 1.0;
    }
    s20 = 1.0;
    b20[0] = 1.0;
    #pragma acc data copy(a20) copyin(b20,s20)
    #pragma acc kernels
    for (i20 = 0; i20 < 20000000; i20++) {
        a20[i20] = a20[i20] * s20 + b20[i20];
    }
    s21 = 1.1;
    b21[0] = 1.0;
    for (i21 = 0; i21 < 2000000; i21++) {
        a21[i21] = a21[i21] * s21 + b21[i21];
    }
    s22 = 1.2;
    b22[0] = 1.0;
    #pragma acc data copy(a22) copyin(b22,s22)
    #pragma acc kernels
    for (i22 = 0; i22 < 20000000; i22++) {
        a22[i22] = a22[i22] * s22 + b22[i22];
    }
    s23 = 1.3;
    b23[0] = 1.0;
    for (i23 = 0; i23 < 2000000; i23++) {
        a23[i23] = a23[i23] * s23 + b23[i23];
    }
    s24 = 1.4;
    b24[0] = 1.0;
    #pragma acc data copy(a24) copyin(b24,s24)
    #pragma acc kernels
    for (i24 = 0; i24 < 20000000; i24++) {
        a24[i24] = a24[i24] * s24 + b24[i24];
    }
    r4[0] = 0.0;
    for (q4 = 1; q4 < 10000; q4++) {
        r4[q4] = r4[q4 - 1] + 1.0;
    }
    s25 = 1.5;
    b25[0] = 1.0;
    for (i25 = 0; i25 < 2000000; i25++) {
        a25[i25] = a25[i25] * s25 + b25[i25];
    }
    s26 = 1.6;
    b26[0] = 1.0;
    #pragma acc data copy(a26) copyin(b26,s26)
    #pragma acc kernels
    for (i26 = 0; i26 < 20000000; i26++) {
        a26[i26] = a26[i26] * s26 + b26[i26];
    }
    s27 = 1.7;
    b27[0] = 1.0;
    #pragma acc data copy(a27) copyin(b27,s27)
    #pragma acc kernels
    for (i27 = 0; i27 < 2000000; i27++) {
        a27[i27] = a27[i27] * s27 + b27[i27];
    }
    s28 = 1.8;
    b28[0] = 1.0;
    #pragma acc data copy(a28) copyin(b28,s28)
    #pragma acc kernels
    for (i28 = 0; i28 < 20000000; i28++) {
        a28[i28] = a28[i28] * s28 + b28[i28];
    }
    s29 = 1.9;
    b29[0] = 1.0;
    #pragma acc data copy(a29) copyin(b29,s29)
    #pragma acc kernels
    for (i29 = 0; i29 < 2000000; i29++) {
        a29[i29] = a29[i29] * s29 + b29[i29];
    }
    r5[0] = 0.0;
    for (q5 = 1; q5 < 10000; q5++) {
        r5[q5] = r5[q5 - 1] + 1.0;
    }
    s30 = 1.0;
    b30[0] = 1.0;
    for (i30 = 0; i30 < 20000000; i30++) {
        a30[i30] = a30[i30] * s30 + b30[i30];
    }
    s31 = 1.1;
    b31[0] = 1.0;
    for (i31 = 0; i31 < 2000000; i31++) {
        a31[i31] = a31[i31] * s31 + b31[i31];
    }
    s32 = 1.2;
    b32[0] = 1.0;
    #pragma acc data copy(a32) copyin(b32,s32)
    #pragma acc kernels
    for (i32 = 0; i32 < 20000000; i32++) {
        a32[i32] = a32[i32] * s32 + b32[i32];
    }
    s33 = 1.3;
    b33[0] = 1.0;
    for (i33 = 0; i33 < 2000000; i33++) {
        a33[i33] = a33[i33] * s33 + b33[i33];
    }
    s34 = 1.4;
    b34[0] = 1.0;
    for (i34 = 0; i34 < 20000000; i34++) {
        a34[i34] = a34[i34] * s34 + b34[i34];
    }
    r6[0] = 0.0;
    for (q6 = 1; q6 < 10000; q6++) {
        r6[q6] = r6[q6 - 1] + 1.0;
    }
    s35 = 1.5;
    b35[0] = 1.0;
    for (i35 = 0; i35 < 2000000; i35++) {
        a35[i35] = a35[i35] * s35 + b35[i35];
    }
    s36 = 1.6;
    b36[0] = 1.0;
    for (i36 = 0; i36 < 20000000; i36++) {
        a36[i36] = a36[i36] * s36 + b36[i36];
    }
    s37 = 1.7;
    b37[0] = 1.0;
    for (i37 = 0; i37 < 2000000; i37++) {
        a37[i37] = a37[i37] * s37 + b37[i37];
    }
    s38 = 1.8;
    b38[0] = 1.0;
    #pragma acc data copy(a38) copyin(b38,s38)
    #pragma acc kernels
    for (i38 = 0; i38 < 20000000; i38++) {
        a38[i38] = a38[i38] * s38 + b38[i38];
    }
    s39 = 1.9;
    b39[0] = 1.0;
    for (i39 = 0; i39 < 2000000; i39++) {
        a39[i39] = a39[i39] * s39 + b39[i39];
    }
    r7[0] = 0.0;
    for (q7 = 1; q7 < 10000; q7++) {
        r7[q7] = r7[q7 - 1] + 1.0;
    }
    s40 = 1.0;
    b40[0] = 1.0;
    #pragma acc data copy(a40) copyin(b40,s40)
    #pragma acc kernels
    for (i40 = 0; i40 < 20000000; i40++) {
        a40[i40] = a40[i40] * s40 + b40[i40];
    }
    s41 = 1.1;
    b41[0] = 1.0;
    for (i41 = 0; i41 < 2000000; i41++) {
        a41[i41] = a41[i41] * s41 + b41[i41];
    }
    s42 = 1.2;
    b42[0] = 1.0;
    #pragma acc data copy(a42) copyin(b42,s42)
    #pragma acc kernels
    for (i42 = 0; i42 < 20000000; i42++) {
        a42[i42] = a42[i42] * s42 + b42[i42];
    }
    s43 = 1.3;
    b43[0] = 1.0;
    for (i43 = 0; i43 < 2000000; i43++) {
        a43[i43] = a43[i43] * s43 + b43[i43];
    }
    s44 = 1.4;
    b44[0] = 1.0;
    #pragma acc data copy(a44) copyin(b44,s44)
    #pragma acc kernels
    for (i44 = 0; i44 < 20000000; i44++) {
        a44[i44] = a44[i44] * s44 + b44[i44];
    }
    r8[0] = 0.0;
    for (q8 = 1; q8 < 10000; q8++) {
        r8[q8] = r8[q8 - 1] + 1.0;
    }
    s45 = 1.5;
    b45[0] = 1.0;
    #pragma acc data copy(a45) copyin(b45,s45)
    #pragma acc kernels
    for (i45 = 0; i45 < 2000000; i45++) {
        a45[i45] = a45[i45] * s45 + b45[i45];
    }
    s46 = 1.6;
    b46[0] = 1.0;
    #pragma acc data copy(a46) copyin(b46,s46)
    #pragma acc kernels
    for (i46 = 0; i46 < 20000000; i46++) {
        a46[i46] = a46[i46] * s46 + b46[i46];
    }
    s47 = 1.7;
    b47[0] = 1.0;
    for (i47 = 0; i47 < 2000000; i47++) {
        a47[i47] = a47[i47] * s47 + b47[i47];
    }
    s48 = 1.8;
    b48[0] = 1.0;
    #pragma acc data copy(a48) copyin(b48,s48)
    #pragma acc kernels
    for (i48 = 0; i48 < 20000000; i48++) {
        a48[i48] = a48[i48] * s48 + b48[i48];
    }
    s49 = 1.9;
    b49[0] = 1.0;
    for (i49 = 0; i49 < 2000000; i49++) {
        a49[i49] = a49[i49] * s49 + b49[i49];
    }
    r9[0] = 0.0;
    for (q9 = 1; q9 < 10000; q9++) {
        r9[q9] = r9[q9 - 1] + 1.0;
    }
    s50 = 1.0;
    b50[0] = 1.0;
    for (i50 = 0; i50 < 20000000; i50++) {
        a50[i50] = a50[i50] * s50 + b50[i50];
    }
    s51 = 1.1;
    b51[0] = 1.0;
    for (i51 = 0; i51 < 2000000; i51++) {
        a51[i51] = a51[i51] * s51 + b51[i51];
    }
    s52 = 1.2;
    b52[0] = 1.0;
    #pragma acc data copy(a52) copyin(b52,s52)
    #pragma acc kernels
    for (i52 = 0; i52 < 20000000; i52++) {
        a52[i52] = a52[i52] * s52 + b52[i52];
    }
    s53 = 1.3;
    b53[0] = 1.0;
    for (i53 = 0; i53 < 2000000; i53++) {
        a53[i53] = a53[i53] * s53 + b53[i53];
    }
    s54 = 1.4;
    b54[0] = 1.0;
    #pragma acc data copy(a54) copyin(b54,s54)
    #pragma acc kernels
    for (i54 = 0; i54 < 20000000; i54++) {
        a54[i54] = a54[i54] * s54 + b54[i54];
    }
    r10[0] = 0.0;
    for (q10 = 1; q10 < 10000; q10++) {
        r10[q10] = r10[q10 - 1] + 1.0;
    }
    s55 = 1.5;
    b55[0] = 1.0;
    #pragma acc data copy(a55) copyin(b55,s55)
    #pragma acc kernels
    for (i55 = 0; i55 < 2000000; i55++) {
        a55[i55] = a55[i55] * s55 + b55[i55];
    }
    s56 = 1.6;
    b56[0] = 1.0;
    for (i56 = 0; i56 < 20000000; i56++) {
        a56[i56] = a56[i56] * s56 + b56[i56];
    }
    s57 = 1.7;
    b57[0] = 1.0;
    for (i57 = 0; i57 < 2000000; i57++) {
        a57[i57] = a57[i57] * s57 + b57[i57];
    }
    s58 = 1.8;
    b58[0] = 1.0;
    #pragma acc data copy(a58) copyin(b58,s58)
    #pragma acc kernels
    for (i58 = 0; i58 < 20000000; i58++) {
        a58[i58] = a58[i58] * s58 + b58[i58];
    }
    s59 = 1.9;
    b59[0] = 1.0;
    for (i59 = 0; i59 < 2000000; i59++) {
        a59[i59] = a59[i59] * s59 + b59[i59];
    }
    r11[0] = 0.0;
    for (q11 = 1; q11 < 10000; q11++) {
        r11[q11] = r11[q11 - 1] + 1.0;
    }
    s60 = 1.0;
    b60[0] = 1.0;
    for (i60 = 0; i60 < 20000000; i60++) {
        a60[i60] = a60[i60] * s60 + b60[i60];
    }
    s61 = 1.1;
    b61[0] = 1.0;
    #pragma acc data copy(a61) copyin(b61,s61)
    #pragma acc kernels
    for (i61 = 0; i61 < 2000000; i61++) {
        a61[i61] = a61[i61] * s61 + b61[i61];
    }
    s62 = 1.2;
    b62[0] = 1.0;
    #pragma acc data copy(a62) copyin(b62,s62)
    #pragma acc kernels
    for (i62 = 0; i62 < 20000000; i62++) {
        a62[i62] = a62[i62] * s62 + b62[i62];
    }
    s63 = 1.3;
    b63[0] = 1.0;
    #pragma acc data copy(a63) copyin(b63,s63)
    #pragma acc kernels
    for (i63 = 0; i63 < 2000000; i63++) {
        a63[i63] = a63[i63] * s63 + b63[i63];
    }
    s64 = 1.4;
    b64[0] = 1.0;
    for (i64 = 0; i64 < 20000000; i64++) {
        a64[i64] = a64[i64] * s64 + b64[i64];
    }
    r12[0] = 0.0;
    for (q12 = 1; q12 < 10000; q12++) {
        r12[q12] = r12[q12 - 1] + 1.0;
    }
    s65 = 1.5;
    b65[0] = 1.0;
    for (i65 = 0; i65 < 2000000; i65++) {
        a65[i65] = a65[i65] * s65 + b65[i65];
    }
    s66 = 1.6;
    b66[0] = 1.0;
    #pragma acc data copy(a66) copyin(b66,s66)
    #pragma acc kernels
    for (i66 = 0; i66 < 20000000; i66++) {
        a66[i66] = a66[i66] * s66 + b66[i66];
    }
    s67 = 1.7;
    b67[0] = 1.0;
    #pragma acc data copy(a67) copyin(b67,s67)
    #pragma acc kernels
    for (i67 = 0; i67 < 2000000; i67++) {
        a67[i67] = a67[i67] * s67 + b67[i67];
    }
    s68 = 1.8;
    b68[0] = 1.0;
    for (i68 = 0; i68 < 20000000; i68++) {
        a68[i68] = a68[i68] * s68 + b68[i68];
    }
    s69 = 1.9;
    b69[0] = 1.0;
    for (i69 = 0; i69 < 2000000; i69++) {
        a69[i69] = a69[i69] * s69 + b69[i69];
    }
    r13[0] = 0.0;
    for (q13 = 1; q13 < 10000; q13++) {
        r13[q13] = r13[q13 - 1] + 1.0;
    }
    s70 = 1.0;
    b70[0] = 1.0;
    #pragma acc data copy(a70) copyin(b70,s70)
    #pragma acc kernels
    for (i70 = 0; i70 < 20000000; i70++) {
        a70[i70] = a70[i70] * s70 + b70[i70];
    }
    s71 = 1.1;
    b71[0] = 1.0;
    for (i71 = 0; i71 < 2000000; i71++) {
        a71[i71] = a71[i71] * s71 + b71[i71];
    }
    s72 = 1.2;
    b72[0] = 1.0;
    for (i72 = 0; i72 < 20000000; i72++) {
        a72[i72] = a72[i72] * s72 + b72[i72];
    }
    s73 = 1.3;
    b73[0] = 1.0;
    #pragma acc data copy(a73) copyin(b73,s73)
    #pragma acc kernels
    for (i73 = 0; i73 < 2000000; i73++) {
        a73[i73] = a73[i73] * s73 + b73[i73];
    }
    s74 = 1.4;
    b74[0] = 1.0;
    #pragma acc data copy(a74) copyin(b74,s74)
    #pragma acc kernels
    for (i74 = 0; i74 < 20000000; i74++) {
        a74[i74] = a74[i74] * s74 + b74[i74];
    }
    r14[0] = 0.0;
    for (q14 = 1; q14 < 10000; q14++) {
        r14[q14] = r14[q14 - 1] + 1.0;
    }
    return 0;
}
